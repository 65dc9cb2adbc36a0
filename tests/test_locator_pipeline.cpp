/**
 * @file
 * Cycle-level locator pipeline tests: the trace-driven model must
 * agree with the analytic per-round timeline used by the I-GCN
 * timing model within a small factor, respond correctly to the
 * parallelism knobs, and report sane occupancy/queue statistics.
 */

#include <gtest/gtest.h>

#include "accel/locator_pipeline.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"

namespace igcn {
namespace {

IslandizationResult
tracedIslandize(const CsrGraph &g, LocatorConfig cfg = {})
{
    cfg.recordTrace = true;
    return islandize(g, cfg);
}

/** Analytic per-round estimate (mirrors igcn_model's timeline). */
Cycles
analyticCycles(const IslandizationResult &isl, const LocatorConfig &cfg)
{
    Cycles total = 0;
    for (const RoundInfo &info : isl.rounds) {
        Cycles detect = info.nodesChecked / std::max(1, cfg.p1) + 1;
        Cycles bfs = info.edgesScanned /
            std::max(1, cfg.p2 * cfg.bfsScanWidth) + 1;
        total += std::max(detect, bfs) + 16;
    }
    return total;
}

TEST(LocatorPipeline, RequiresTrace)
{
    auto hi = hubAndIslandGraph({.numNodes = 200, .seed = 1});
    auto isl = islandize(hi.graph); // no trace
    EXPECT_THROW(simulateLocatorPipeline(isl, {}),
                 std::invalid_argument);
}

TEST(LocatorPipeline, AgreesWithAnalyticTimeline)
{
    auto hi = hubAndIslandGraph({.numNodes = 4000, .seed = 31});
    LocatorConfig cfg;
    auto isl = tracedIslandize(hi.graph, cfg);
    auto pipeline = simulateLocatorPipeline(isl, cfg);
    Cycles analytic = analyticCycles(isl, cfg);

    EXPECT_GT(pipeline.totalCycles, 0u);
    // The pipeline model adds fetch latency and dispatch overhead
    // the analytic model hides, so it should be slower but within a
    // small factor.
    EXPECT_GE(pipeline.totalCycles, analytic / 2);
    EXPECT_LE(pipeline.totalCycles, analytic * 6);
}

TEST(LocatorPipeline, MoreEnginesNeverSlower)
{
    auto hi = hubAndIslandGraph({.numNodes = 3000, .seed = 5});
    LocatorConfig few, many;
    few.p2 = 4;
    many.p2 = 128;
    auto isl_few = tracedIslandize(hi.graph, few);
    auto isl_many = tracedIslandize(hi.graph, many);
    auto slow = simulateLocatorPipeline(isl_few, few);
    auto fast = simulateLocatorPipeline(isl_many, many);
    EXPECT_GE(slow.totalCycles, fast.totalCycles);
    // Few engines saturate: occupancy must be higher.
    EXPECT_GT(slow.avgEngineOccupancy,
              fast.avgEngineOccupancy * 0.99);
}

TEST(LocatorPipeline, WiderScanFaster)
{
    auto hi = hubAndIslandGraph({.numNodes = 3000, .seed = 8});
    LocatorConfig narrow, wide;
    narrow.bfsScanWidth = 1;
    wide.bfsScanWidth = 8;
    auto isl = tracedIslandize(hi.graph, narrow);
    auto a = simulateLocatorPipeline(isl, narrow);
    auto b = simulateLocatorPipeline(isl, wide);
    EXPECT_GE(a.totalCycles, b.totalCycles);
}

TEST(LocatorPipeline, StatsSane)
{
    auto data = buildDataset(Dataset::Cora, 0.5);
    LocatorConfig cfg;
    auto isl = tracedIslandize(data.graph, cfg);
    auto stats = simulateLocatorPipeline(isl, cfg);
    ASSERT_EQ(stats.rounds.size(), isl.rounds.size());
    for (const RoundPipelineStats &r : stats.rounds) {
        EXPECT_GE(r.engineOccupancy, 0.0);
        EXPECT_LE(r.engineOccupancy, 1.0);
        EXPECT_GE(r.totalCycles, r.detectCycles);
    }
    EXPECT_GT(stats.hubBufferHighWater, 0u);
    EXPECT_LE(stats.avgEngineOccupancy, 1.0);
}

TEST(LocatorPipeline, TraceAccountsEveryTask)
{
    auto hi = hubAndIslandGraph({.numNodes = 1200, .seed = 44});
    LocatorConfig cfg;
    cfg.recordTrace = true;
    auto isl = islandize(hi.graph, cfg);
    // Trace entries == tasks generated (every generated task has an
    // outcome record).
    EXPECT_EQ(isl.taskTrace.size(), isl.stats.tasksGenerated);
    uint64_t islands_in_trace = 0;
    uint64_t traced_edges = 0;
    for (const TaskTrace &t : isl.taskTrace) {
        if (t.outcome == TaskOutcome::IslandFound)
            islands_in_trace++;
        traced_edges += t.edgesScanned;
    }
    // Singleton cleanup islands (degree-0 nodes) are not tasks.
    EXPECT_LE(islands_in_trace, isl.islands.size());
    EXPECT_EQ(traced_edges, isl.stats.edgesScanned);
}

TEST(LocatorPipeline, EngineModeTraceAccountsEveryTask)
{
    // The parallel-engine mode records its trace through the same
    // task-pop and island-recording code as the sequential loop, so
    // the pipeline model runs on either interleaving.
    auto data = buildDataset(Dataset::Cora);
    LocatorConfig cfg;
    cfg.parallelEngines = true;
    auto isl = tracedIslandize(data.graph, cfg);
    EXPECT_EQ(isl.taskTrace.size(), isl.stats.tasksGenerated);
    uint64_t traced_edges = 0;
    for (const TaskTrace &t : isl.taskTrace)
        traced_edges += t.edgesScanned;
    EXPECT_EQ(traced_edges, isl.stats.edgesScanned);
    LocatorPipelineStats stats;
    ASSERT_NO_THROW(stats = simulateLocatorPipeline(isl, cfg));
    EXPECT_EQ(stats.rounds.size(), isl.rounds.size());
    EXPECT_GT(stats.totalCycles, 0u);
}

} // namespace
} // namespace igcn
