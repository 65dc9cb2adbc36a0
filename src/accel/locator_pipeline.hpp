/**
 * @file
 * Cycle-level model of the Island Locator pipeline (Figure 6).
 *
 * Where the analytic timeline in igcn_model.cpp treats each round as
 * max(detect, bfs) cycles, this model replays a recorded task trace
 * through the actual microarchitecture: P1 node-degree FIFO lanes
 * feeding the Island Filters and comparators, the hub buffer, the
 * TP-BFS Task Generator streaming adjacency lists into bounded task
 * queues, and P2 TP-BFS engine FSMs consuming scan bursts. It
 * reports per-round cycles, queue high-water marks and engine
 * occupancy — and validates the analytic model (the test suite
 * checks the two agree within a small factor).
 */

#pragma once

#include "core/locator.hpp"
#include "sim/dram.hpp"

namespace igcn {

/** Per-round cycle/occupancy record. */
struct RoundPipelineStats
{
    Cycles detectCycles = 0;  ///< hub-detection sweep
    Cycles bfsCycles = 0;     ///< TP-BFS drain after sweep start
    Cycles totalCycles = 0;   ///< round duration incl. barrier
    double engineOccupancy = 0.0; ///< busy fraction of P2 engines
};

/** Whole-run pipeline statistics. */
struct LocatorPipelineStats
{
    Cycles totalCycles = 0;
    std::vector<RoundPipelineStats> rounds;
    size_t hubBufferHighWater = 0;
    size_t taskQueueHighWater = 0;
    double avgEngineOccupancy = 0.0;
};

/**
 * Replay an islandization (run with cfg.recordTrace = true) through
 * the pipeline model.
 *
 * @throws std::invalid_argument if the trace is missing.
 */
LocatorPipelineStats
simulateLocatorPipeline(const IslandizationResult &isl,
                        const LocatorConfig &cfg);

} // namespace igcn
