/**
 * @file
 * Off-chip memory (DRAM) bandwidth model.
 *
 * Models a shared memory channel as a bandwidth-limited resource with
 * burst-granularity accounting: a request occupies the channel for
 * bytes / bytes_per_cycle, scaled by an efficiency factor that
 * penalizes random (non-streaming) access patterns, and completes no
 * earlier than the channel's previous requests. This captures the
 * phenomenon the paper's Table 1 is about — irregular accesses to the
 * feature/result matrices saturate off-chip bandwidth — without
 * simulating individual DRAM commands.
 */

#pragma once

#include <cstdint>

namespace igcn {

/** Simulated time, in accelerator clock cycles. */
using Cycles = uint64_t;

/** Access pattern of a DRAM request. */
enum class AccessPattern
{
    Streaming, ///< long sequential burst (near-peak efficiency)
    Random     ///< short irregular access (row-miss dominated)
};

/** Configuration of the DRAM channel model. */
struct DramConfig
{
    /** Peak bandwidth in GB/s (Stratix 10 SX: 4x DDR4-2400 ch.). */
    double bandwidthGBps = 76.8;
    /** Accelerator clock in MHz (requests are timed in core cycles). */
    double coreClockMHz = 330.0;
    /** Fraction of peak achieved by streaming requests. */
    double streamEfficiency = 0.90;
    /** Fraction of peak achieved by random requests. */
    double randomEfficiency = 0.45;
    /** Fixed per-request latency in core cycles (tRC + controller). */
    Cycles requestLatency = 30;
};

/** Shared DRAM channel with in-order bandwidth accounting. */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &cfg = {}) : config(cfg) {}

    /**
     * Issue a request at time `now`; @return completion time.
     * The channel serializes occupancy, so concurrent requesters see
     * queueing delay.
     */
    Cycles access(Cycles now, uint64_t bytes, AccessPattern pattern);

    /** Total bytes transferred so far. */
    uint64_t totalBytes() const { return bytesTransferred; }

    /** Bytes transferred with each pattern. */
    uint64_t streamedBytes() const { return bytesStreamed; }
    uint64_t randomBytes() const { return bytesRandom; }

    /** Cycles the channel has been busy. */
    Cycles busyCycles() const { return cyclesBusy; }

    /** Time at which the channel next becomes free. */
    Cycles freeAt() const { return nextFree; }

    /** Peak bytes per core cycle for this configuration. */
    double bytesPerCycle() const;

    const DramConfig &cfg() const { return config; }

  private:
    DramConfig config;
    Cycles nextFree = 0;
    Cycles cyclesBusy = 0;
    uint64_t bytesTransferred = 0;
    uint64_t bytesStreamed = 0;
    uint64_t bytesRandom = 0;
};

} // namespace igcn
