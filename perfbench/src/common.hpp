/**
 * @file
 * Shared pieces of the benchmark: wall timing, sample statistics, the
 * benchmark's own span recorder, output digests, host-noise probes and
 * the check ledger that feeds `failed`.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since process start. */
double nowS();

/** Median of xs (0 when empty). */
double median(std::vector<double> xs);

/** Quantile q in [0, 1] of xs by linear interpolation (0 when empty). */
double quantile(std::vector<double> xs, double q);

/**
 * Spans recorded from the benchmark's own files around calls into the
 * program's public functions: name, start, end, parent and the batch,
 * request or epoch id the span belongs to. Kept in memory; written as
 * a Perfetto trace at exit. Disabled recorders cost one branch.
 */
class Spans
{
  public:
    struct Rec
    {
        std::string name;
        double t0 = 0;
        double t1 = 0;
        int parent = -1;
        uint64_t id = 0;
        uint32_t lane = 0;
    };

    /** RAII span; nested scopes become children. */
    class Scope
    {
      public:
        Scope(Spans *s, const char *name, uint64_t id, uint32_t lane = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Duration so far, seconds (valid whether or not recording). */
        double elapsed() const { return nowS() - t0; }

      private:
        Spans *spans;
        int idx;
        double t0;
    };

    const std::vector<Rec> &records() const { return recs; }

    /** Total and self (minus children) seconds of every span named
     *  `name`, and how many there were. */
    struct Sum
    {
        double total = 0;
        double self = 0;
        uint64_t count = 0;
    };
    Sum sum(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON through the
     *  program's Perfetto exporter; false on I/O failure. */
    bool writePerfetto(const std::string &path) const;

  private:
    std::vector<Rec> recs;
    std::vector<int> stack;
};

/** FNV-1a over raw bytes, for output digests. */
struct Digest
{
    uint64_t h = 1469598103934665603ull;
    void add(const void *p, size_t n);
    std::string hex() const;
};

/** Host state the run saw: lets a noisy run be told apart from a
 *  regression. */
struct HostNoise
{
    std::string cpuModel;
    unsigned nproc = 0;
    std::string igcnThreads;
    uint64_t stealTicks = 0;
    uint64_t totalTicks = 0;
    double stealFrac() const
    {
        return totalTicks ? static_cast<double>(stealTicks) /
                                static_cast<double>(totalTicks)
                          : 0.0;
    }
};

/** Host speed at one moment: milliseconds of a fixed integer loop and
 *  of a fixed 16 MiB streaming read. Taken before and after the
 *  measured phase, it shows the host's own drift next to the metrics. */
struct HostSpeed
{
    double aluMs = 0;
    double memMs = 0;
};
HostSpeed probeHostSpeed();

/** /proc/stat aggregate cpu ticks: {steal, total}. */
std::pair<uint64_t, uint64_t> procStatTicks();

/** CPU model, nproc and IGCN_THREADS of this host. */
HostNoise probeHost();

/** Peak resident set of this process in MiB. */
double peakRssMb();

/**
 * The run's check ledger. An operation (a request, an epoch) fails
 * when it is refused, errors, or an output check on it fails; each
 * failed operation counts once however many checks it failed. The
 * first few failures are kept as messages so a failing run says why.
 */
struct Checks
{
    uint64_t checksRun = 0;
    uint64_t checksFailed = 0;
    std::set<uint64_t> failedOps;
    std::vector<std::string> messages;

    /** Record one check on operation `op`; returns ok. */
    bool expect(bool ok, const char *what, uint64_t op);
};

/** Deterministic 64-bit mix (splitmix64), for fixed row samples. */
uint64_t mix64(uint64_t x);

} // namespace perfbench
