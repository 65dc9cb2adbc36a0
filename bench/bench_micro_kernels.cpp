/**
 * @file
 * google-benchmark micro-benchmarks of the library's hot kernels:
 * SpMM dataflows, islandization, island bitmap construction, window
 * op counting, and the island-based aggregation itself.
 *
 * The rewritten gather kernels (push outer-product, transpose) sweep
 * the thread count as a second benchmark argument — the per-kernel
 * speedup is the time ratio between the 1-thread and N-thread rows —
 * and report the process memory high-water mark before and after the
 * run as counters (rss_before_kb / rss_after_kb). Peak RSS is
 * process-monotonic, so in a full run every benchmark after the
 * first big one reports the same global high-water mark; to
 * attribute the mark to one kernel (e.g. to see the speculation
 * buffers' removal), run it alone via
 * --benchmark_filter=OuterProduct or =Transpose.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/consumer.hpp"
#include "core/locator.hpp"
#include "core/redundancy.hpp"
#include "gcn/reference.hpp"
#include "graph/generators.hpp"
#include "obs/runtime.hpp"
#include "runtime/thread_pool.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

/** Attach before/after peak-RSS counters to a benchmark's report. */
class RssScope
{
  public:
    explicit RssScope(benchmark::State &state)
        : st(state), before(bench::peakRssKb())
    {}

    ~RssScope()
    {
        st.counters["rss_before_kb"] = static_cast<double>(before);
        st.counters["rss_after_kb"] =
            static_cast<double>(bench::peakRssKb());
    }

  private:
    benchmark::State &st;
    uint64_t before;
};

const CsrGraph &
benchGraph()
{
    static const CsrGraph g = hubAndIslandGraph(
        {.numNodes = 20000, .seed = 42}).graph;
    return g;
}

const IslandizationResult &
benchIslands()
{
    static const IslandizationResult isl = islandize(benchGraph());
    return isl;
}

void
BM_SpmmPullRowWise(benchmark::State &state)
{
    CsrMatrix a = CsrMatrix::fromGraph(benchGraph());
    Rng rng(1);
    DenseMatrix b(benchGraph().numNodes(),
                  static_cast<size_t>(state.range(0)));
    b.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = spmmPullRowWise(a, b, nullptr);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() *
                            state.range(0));
}
BENCHMARK(BM_SpmmPullRowWise)->Arg(16)->Arg(64);

void
BM_SpmmPushOuterProduct(benchmark::State &state)
{
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(1)));
    CsrMatrix a = CsrMatrix::fromGraph(benchGraph());
    Rng rng(1);
    DenseMatrix b(benchGraph().numNodes(),
                  static_cast<size_t>(state.range(0)));
    b.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = spmmPushOuterProduct(a, b, nullptr);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() *
                            state.range(0));
    setGlobalThreads(0);
}
BENCHMARK(BM_SpmmPushOuterProduct)
    ->ArgsProduct({{16}, {1, 2, 4}});

void
BM_CscAdjunctBuild(benchmark::State &state)
{
    // Cost of the one-time CSC construction the cache amortizes away
    // (the old outer-product kernel paid this on every call).
    CsrMatrix a = CsrMatrix::fromGraph(benchGraph());
    for (auto _ : state) {
        a.invalidateCsc();
        benchmark::DoNotOptimize(&a.csc());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_CscAdjunctBuild);

void
BM_CsrGather(benchmark::State &state)
{
    // The serving engine's per-micro-batch row extraction: pull a
    // receptive field's rows out of a NELL-shaped CSR feature matrix.
    // range(0) = density in permille, range(1) = threads.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(1)));
    const double density =
        static_cast<double>(state.range(0)) / 1000.0;
    Rng rng(3);
    Features x = makeFeatures(20000, 4096, density, rng,
                              /*force_sparse=*/true);
    std::vector<NodeId> rows(1024);
    for (NodeId &r : rows)
        r = static_cast<NodeId>(rng.nextBounded(20000));
    for (auto _ : state) {
        CsrMatrix sub = csrGather(x.csr, rows);
        benchmark::DoNotOptimize(sub.values.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(x.nnz()) * 1024 /
                            20000);
    setGlobalThreads(0);
}
BENCHMARK(BM_CsrGather)->ArgsProduct({{10, 100}, {1, 2, 4}});

void
BM_FirstLayerCombination(benchmark::State &state)
{
    // Layer-0 X*W at one shape in both storage forms — the time
    // ratio between the sparse=1 and sparse=0 rows at one density is
    // the first-layer speedup the CSR path buys. range(0) = density
    // in permille, range(1) = sparse form, range(2) = threads.
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(2)));
    const double density =
        static_cast<double>(state.range(0)) / 1000.0;
    const bool sparse = state.range(1) != 0;
    Rng rng(3);
    Features x = makeFeatures(4096, 4096, density, rng, sparse);
    DenseMatrix w(4096, 16);
    w.fillRandom(rng);
    for (auto _ : state) {
        DenseMatrix c = sparse ? sparseTimesDense(x.csr, w, nullptr)
                               : gemm(x.dense, w);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(x.nnz()) * 16);
    setGlobalThreads(0);
}
BENCHMARK(BM_FirstLayerCombination)
    ->ArgsProduct({{10, 100}, {0, 1}, {1, 4}});

void
BM_SparseTransposeTimesDense(benchmark::State &state)
{
    // Backward-pass X^T * dU for CSR features, steady-state (the CSC
    // adjunct is built once and reused across epochs).
    RssScope rss(state);
    setGlobalThreads(static_cast<int>(state.range(1)));
    const double density =
        static_cast<double>(state.range(0)) / 1000.0;
    Rng rng(3);
    Features x = makeFeatures(20000, 4096, density, rng,
                              /*force_sparse=*/true);
    DenseMatrix b(20000, 16);
    b.fillRandom(rng);
    (void)x.csr.csc();
    for (auto _ : state) {
        DenseMatrix c = sparseTransposeTimesDense(x.csr, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(x.nnz()) * 16);
    setGlobalThreads(0);
}
BENCHMARK(BM_SparseTransposeTimesDense)
    ->ArgsProduct({{10}, {1, 4}});

void
BM_Islandize(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    for (auto _ : state) {
        IslandizationResult isl = islandize(g);
        benchmark::DoNotOptimize(isl.islands.data());
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges());
}
BENCHMARK(BM_Islandize);

void
BM_CountPruning(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    const IslandizationResult &isl = benchIslands();
    RedundancyConfig cfg;
    for (auto _ : state) {
        PruningReport r = countPruning(g, isl, cfg);
        benchmark::DoNotOptimize(r.interHubOps);
    }
    state.SetItemsProcessed(state.iterations() * g.numEdges());
}
BENCHMARK(BM_CountPruning);

void
BM_AggregateViaIslands(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    const IslandizationResult &isl = benchIslands();
    Rng rng(2);
    DenseMatrix y(g.numNodes(), 16);
    y.fillRandom(rng);
    RedundancyConfig cfg;
    for (auto _ : state) {
        DenseMatrix z = aggregateViaIslands(g, isl, y, cfg);
        benchmark::DoNotOptimize(z.data().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            (g.numEdges() + g.numNodes()) * 16);
}
BENCHMARK(BM_AggregateViaIslands);

void
BM_BuildIslandBitmap(benchmark::State &state)
{
    const CsrGraph &g = benchGraph();
    const IslandizationResult &isl = benchIslands();
    for (auto _ : state) {
        uint64_t bits = 0;
        for (const Island &island : isl.islands) {
            IslandBitmap bm = buildIslandBitmap(g, island, true);
            bits += bm.countBits();
        }
        benchmark::DoNotOptimize(bits);
    }
    state.SetItemsProcessed(state.iterations() * isl.islands.size());
}
BENCHMARK(BM_BuildIslandBitmap);

} // namespace
} // namespace igcn

/**
 * Custom main instead of BENCHMARK_MAIN(): the whole run executes
 * under the pool's observer hook, and the per-kernel wall/busy
 * totals (SpMM dataflows, gathers, islandization — every labeled
 * parallelFor region) print as one table after the benchmark report.
 */
int
main(int argc, char **argv)
{
    igcn::obs::enableRuntimeProfiling();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    igcn::obs::disableRuntimeProfiling();

    const std::string table =
        igcn::obs::kernelTimingReport(igcn::obs::runtimeRegistry());
    if (!table.empty())
        std::printf("\nper-kernel timing (pool observer totals)\n%s",
                    table.c_str());
    return 0;
}
