/**
 * @file
 * Differential and property tests for the parallel kernels.
 *
 * Every kernel that moved onto the thread pool — the four SpMM
 * dataflows and sparseTransposeTimesDense — is checked at 1/2/4/8
 * threads across the four graph families against a sequential
 * reference written with the pre-refactor loop orders:
 *
 *  - at 1 thread the parallel kernel must be BIT-identical to the
 *    sequential reference (one chunk, one accumulator, same float
 *    order);
 *  - across thread counts results must agree exactly: since the
 *    push-style kernels became race-free gathers over the cached CSC
 *    adjunct, every output element of every dataflow keeps its
 *    sequential accumulation order, so all five SpMM kernels are
 *    bit-identical at any thread count (a stronger property than the
 *    float-reassociation tolerance the old per-worker-buffer scatter
 *    versions guaranteed — which these tests also still imply);
 *  - hardware access counters are arithmetic and must be exact at
 *    every thread count;
 *  - islandize runs sequentially; its full output — the island
 *    partition (ids, membership, BFS node order, roles, inter-hub
 *    map, per-round record), all statistics and the task trace — is
 *    pinned as a digest per input and checked at every thread count,
 *    in both the default and the parallel-engine mode. The digests
 *    were taken from the earlier worker-sharded locator, so they are
 *    an oracle independent of the current implementation; the
 *    accelerator timing models consume exactly these numbers.
 *
 * A fuzz sweep over randomized small CSR matrices (empty rows,
 * isolated vertices, skewed degree distributions, rectangular shapes)
 * checks all five kernels against a naive triple-loop dense product.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/locator.hpp"
#include "gcn/layer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "spmm/spmm.hpp"

namespace igcn {
namespace {

constexpr double kTol = 1e-4;
const int kThreadCounts[] = {1, 2, 4, 8};

/** Restore the default global pool after each test. */
class ParityTest : public ::testing::Test
{
  protected:
    void TearDown() override { setGlobalThreads(0); }
};

// ---------------------------------------------------------------------
// Sequential references: the seed's (pre-refactor) loop orders,
// verbatim. These never touch the thread pool.
// ---------------------------------------------------------------------

DenseMatrix
seqPullRowWise(const CsrMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.numRows, b.cols());
    for (NodeId i = 0; i < a.numRows; ++i) {
        float *crow = c.row(i);
        for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e) {
            const float aval = a.values[e];
            const float *brow = b.row(a.colIdx[e]);
            for (size_t ch = 0; ch < b.cols(); ++ch)
                crow[ch] += aval * brow[ch];
        }
    }
    return c;
}

DenseMatrix
seqPullInnerProduct(const CsrMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.numRows, b.cols());
    for (NodeId i = 0; i < a.numRows; ++i) {
        for (size_t ch = 0; ch < b.cols(); ++ch) {
            float acc = 0.0f;
            for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e)
                acc += a.values[e] * b.at(a.colIdx[e], ch);
            c.at(i, ch) = acc;
        }
    }
    return c;
}

DenseMatrix
seqPushColumnWise(const CsrMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.numRows, b.cols());
    for (size_t ch = 0; ch < b.cols(); ++ch)
        for (NodeId i = 0; i < a.numRows; ++i)
            for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e)
                c.at(i, ch) += a.values[e] * b.at(a.colIdx[e], ch);
    return c;
}

DenseMatrix
seqPushOuterProduct(const CsrMatrix &a, const DenseMatrix &b)
{
    const size_t channels = b.cols();
    DenseMatrix c(a.numRows, channels);
    std::vector<EdgeId> col_count(a.numCols + 1, 0);
    for (NodeId v : a.colIdx)
        col_count[v + 1]++;
    for (NodeId k = 0; k < a.numCols; ++k)
        col_count[k + 1] += col_count[k];
    std::vector<NodeId> row_of(a.nnz());
    std::vector<float> val_of(a.nnz());
    std::vector<EdgeId> cursor(col_count.begin(), col_count.end() - 1);
    for (NodeId i = 0; i < a.numRows; ++i) {
        for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e) {
            EdgeId slot = cursor[a.colIdx[e]]++;
            row_of[slot] = i;
            val_of[slot] = a.values[e];
        }
    }
    for (NodeId k = 0; k < a.numCols; ++k) {
        const float *brow = b.row(k);
        for (EdgeId e = col_count[k]; e < col_count[k + 1]; ++e) {
            float *crow = c.row(row_of[e]);
            for (size_t ch = 0; ch < channels; ++ch)
                crow[ch] += val_of[e] * brow[ch];
        }
    }
    return c;
}

DenseMatrix
seqTransposeTimesDense(const CsrMatrix &x, const DenseMatrix &b)
{
    DenseMatrix c(x.numCols, b.cols());
    for (NodeId r = 0; r < x.numRows; ++r) {
        const float *brow = b.row(r);
        for (EdgeId e = x.rowPtr[r]; e < x.rowPtr[r + 1]; ++e) {
            float *crow = c.row(x.colIdx[e]);
            const float v = x.values[e];
            for (size_t j = 0; j < b.cols(); ++j)
                crow[j] += v * brow[j];
        }
    }
    return c;
}

/** Naive dense C = A * B with ascending-k float accumulation. */
DenseMatrix
naiveDenseProduct(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t ch = 0; ch < b.cols(); ++ch) {
            float acc = 0.0f;
            for (size_t k = 0; k < a.cols(); ++k)
                acc += a.at(i, k) * b.at(k, ch);
            c.at(i, ch) = acc;
        }
    return c;
}

/** Naive dense C = A^T * B. */
DenseMatrix
naiveDenseTransposeProduct(const DenseMatrix &a, const DenseMatrix &b)
{
    DenseMatrix c(a.cols(), b.cols());
    for (size_t j = 0; j < a.cols(); ++j)
        for (size_t ch = 0; ch < b.cols(); ++ch) {
            float acc = 0.0f;
            for (size_t k = 0; k < a.rows(); ++k)
                acc += a.at(k, j) * b.at(k, ch);
            c.at(j, ch) = acc;
        }
    return c;
}

// ---------------------------------------------------------------------
// Shared inputs
// ---------------------------------------------------------------------

struct FamilyCase
{
    const char *name;
    CsrGraph graph;
};

std::vector<FamilyCase>
graphFamilies()
{
    std::vector<FamilyCase> cases;
    HubIslandParams hp;
    hp.numNodes = 1500;
    hp.seed = 91;
    cases.push_back({"hub-island", hubAndIslandGraph(hp).graph});
    cases.push_back({"erdos-renyi", erdosRenyi(1200, 6.0, 17)});
    cases.push_back({"rmat",
                     rmat(1024, 6000, 0.57, 0.19, 0.19, 23)});
    cases.push_back({"barabasi-albert", barabasiAlbert(1000, 3, 29)});
    return cases;
}

/** Weighted adjacency + feature matrix for one family graph. */
void
makeOperands(const CsrGraph &g, CsrMatrix &a, DenseMatrix &b,
             size_t channels = 100)
{
    a = CsrMatrix::fromGraph(g);
    Rng vrng(13);
    for (float &v : a.values)
        v = vrng.nextFloat(2.0f);
    Rng rng(19);
    // 100 channels spans one full channel tile plus a ragged rest.
    b = DenseMatrix(g.numNodes(), channels);
    b.fillRandom(rng);
}

void
expectCountersEqual(const SpmmCounters &a, const SpmmCounters &b,
                    const std::string &ctx)
{
    EXPECT_EQ(a.macOps, b.macOps) << ctx;
    EXPECT_EQ(a.aReads, b.aReads) << ctx;
    EXPECT_EQ(a.bStreamedReads, b.bStreamedReads) << ctx;
    EXPECT_EQ(a.bIrregularReads, b.bIrregularReads) << ctx;
    EXPECT_EQ(a.cStreamedWrites, b.cStreamedWrites) << ctx;
    EXPECT_EQ(a.cIrregularWrites, b.cIrregularWrites) << ctx;
}

// ---------------------------------------------------------------------
// SpMM dataflows + transpose: differential across thread counts
// ---------------------------------------------------------------------

using SpmmFn = DenseMatrix (*)(const CsrMatrix &, const DenseMatrix &,
                               SpmmCounters *);
using SeqFn = DenseMatrix (*)(const CsrMatrix &, const DenseMatrix &);

struct KernelCase
{
    const char *name;
    SpmmFn fn;
    SeqFn seq;
    /** Result is bit-identical at every thread count (every output
     *  element keeps its sequential accumulation order under
     *  sharding). True for all four dataflows now that the
     *  outer-product runs as a race-free row gather instead of a
     *  buffered column scatter. */
    bool bitExactAcrossThreads;
};

const KernelCase kKernels[] = {
    {"pull-row-wise", &spmmPullRowWise, &seqPullRowWise, true},
    {"pull-inner-product", &spmmPullInnerProduct,
     &seqPullInnerProduct, true},
    {"push-column-wise", &spmmPushColumnWise, &seqPushColumnWise,
     true},
    {"push-outer-product", &spmmPushOuterProduct,
     &seqPushOuterProduct, true},
};

TEST_F(ParityTest, SpmmDataflowsMatchSequentialAcrossThreads)
{
    for (const FamilyCase &fc : graphFamilies()) {
        CsrMatrix a;
        DenseMatrix b;
        makeOperands(fc.graph, a, b);

        for (const KernelCase &k : kKernels) {
            const DenseMatrix ref = k.seq(a, b);

            setGlobalThreads(1);
            SpmmCounters base_cnt;
            const DenseMatrix base = k.fn(a, b, &base_cnt);
            // One thread = one chunk = the sequential float order.
            EXPECT_EQ(base.data(), ref.data())
                << k.name << " on " << fc.name << " @ 1 thread";

            for (int threads : kThreadCounts) {
                const std::string ctx = std::string(k.name) + " on " +
                    fc.name + " @ " + std::to_string(threads) +
                    " threads";
                setGlobalThreads(threads);
                SpmmCounters cnt;
                const DenseMatrix c = k.fn(a, b, &cnt);
                if (k.bitExactAcrossThreads)
                    EXPECT_EQ(c.data(), base.data()) << ctx;
                else
                    EXPECT_LE(maxAbsDiff(c, base), kTol) << ctx;
                expectCountersEqual(cnt, base_cnt, ctx);
                // Same thread count twice: no scheduling dependence.
                const DenseMatrix c2 = k.fn(a, b, nullptr);
                EXPECT_EQ(c2.data(), c.data()) << ctx << " (rerun)";
            }
        }
    }
}

TEST_F(ParityTest, SparseTransposeTimesDenseMatchesSequentialAcrossThreads)
{
    for (const FamilyCase &fc : graphFamilies()) {
        CsrMatrix a;
        DenseMatrix b;
        makeOperands(fc.graph, a, b);
        const DenseMatrix ref = seqTransposeTimesDense(a, b);

        setGlobalThreads(1);
        const DenseMatrix base = sparseTransposeTimesDense(a, b);
        EXPECT_EQ(base.data(), ref.data())
            << fc.name << " @ 1 thread";

        for (int threads : kThreadCounts) {
            setGlobalThreads(threads);
            const DenseMatrix c = sparseTransposeTimesDense(a, b);
            // Tolerance-equality required, bit-identity delivered:
            // each output row gathers its CSC column in ascending
            // row order at every thread count.
            EXPECT_LE(maxAbsDiff(c, base), kTol)
                << fc.name << " @ " << threads << " threads";
            EXPECT_EQ(c.data(), base.data())
                << fc.name << " @ " << threads << " threads";
            const DenseMatrix c2 = sparseTransposeTimesDense(a, b);
            EXPECT_EQ(c2.data(), c.data())
                << fc.name << " @ " << threads << " threads (rerun)";
        }
    }
}

// ---------------------------------------------------------------------
// CSC adjunct cache invariants
// ---------------------------------------------------------------------

/** From-scratch CSC transpose with the pre-refactor build loop. */
CscIndex
referenceCsc(const CsrMatrix &a)
{
    CscIndex idx;
    idx.colPtr.assign(static_cast<size_t>(a.numCols) + 1, 0);
    idx.rowOf.resize(a.nnz());
    idx.valOf.resize(a.nnz());
    for (NodeId v : a.colIdx)
        idx.colPtr[v + 1]++;
    for (NodeId k = 0; k < a.numCols; ++k)
        idx.colPtr[k + 1] += idx.colPtr[k];
    std::vector<EdgeId> cursor(idx.colPtr.begin(),
                               idx.colPtr.end() - 1);
    for (NodeId i = 0; i < a.numRows; ++i) {
        for (EdgeId e = a.rowPtr[i]; e < a.rowPtr[i + 1]; ++e) {
            const EdgeId slot = cursor[a.colIdx[e]]++;
            idx.rowOf[slot] = i;
            idx.valOf[slot] = a.values[e];
        }
    }
    return idx;
}

TEST_F(ParityTest, CscAdjunctMatchesFromScratchTranspose)
{
    for (const FamilyCase &fc : graphFamilies()) {
        CsrMatrix a;
        DenseMatrix b;
        makeOperands(fc.graph, a, b);
        const CscIndex ref = referenceCsc(a);
        const CscIndex &csc = a.csc();
        EXPECT_EQ(csc.colPtr, ref.colPtr) << fc.name;
        EXPECT_EQ(csc.rowOf, ref.rowOf) << fc.name;
        EXPECT_EQ(csc.valOf, ref.valOf) << fc.name;
        // Cached: the same object is handed back on every call.
        EXPECT_EQ(&a.csc(), &csc) << fc.name;
    }
}

TEST_F(ParityTest, CscAdjunctBuildsOnceUnderConcurrentFirstUse)
{
    CsrMatrix a;
    DenseMatrix b;
    makeOperands(graphFamilies().front().graph, a, b);
    const CscIndex ref = referenceCsc(a);

    constexpr int kThreads = 8;
    std::vector<const CscIndex *> seen(kThreads, nullptr);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Barrier so all first uses really race.
            ready.fetch_add(1);
            while (ready.load() < kThreads) {}
            seen[t] = &a.csc();
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(seen[t], nullptr) << "thread " << t;
        // One-time construction: every concurrent first caller saw
        // the same built object.
        EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    }
    EXPECT_EQ(seen[0]->colPtr, ref.colPtr);
    EXPECT_EQ(seen[0]->rowOf, ref.rowOf);
    EXPECT_EQ(seen[0]->valOf, ref.valOf);
}

TEST_F(ParityTest, CscAdjunctInvalidatesOnMutationAndAssignment)
{
    CsrMatrix a = denseToCsrFeatures([] {
        Rng rng(5);
        DenseMatrix m(12, 9);
        m.fillRandomSparse(rng, 0.3);
        return m;
    }());
    (void)a.csc(); // build

    // Mutating the non-zeros + invalidateCsc() rebuilds on next use.
    for (float &v : a.values)
        v *= 2.0f;
    a.invalidateCsc();
    const CscIndex fresh = referenceCsc(a);
    EXPECT_EQ(a.csc().valOf, fresh.valOf);

    // Assignment drops the target's cache: the reassigned matrix
    // must serve its new transpose, not the stale one.
    CsrMatrix other = denseToCsrFeatures([] {
        Rng rng(6);
        DenseMatrix m(7, 15);
        m.fillRandomSparse(rng, 0.4);
        return m;
    }());
    (void)other.csc();
    other = a;
    const CscIndex &after = other.csc();
    EXPECT_EQ(after.colPtr, a.csc().colPtr);
    EXPECT_EQ(after.rowOf, a.csc().rowOf);
    EXPECT_EQ(after.valOf, a.csc().valOf);

    // Copies start with an empty cache and build their own index.
    EXPECT_NE(&after, &a.csc());

    // Moving transfers the built adjunct (the destination now owns
    // exactly the arrays it describes — no rebuild), and the
    // moved-from matrix must not keep serving the old transpose:
    // its slot is empty and rebuilds to an empty index.
    CsrMatrix moved = std::move(other);
    EXPECT_EQ(&moved.csc(), &after);
    EXPECT_TRUE(other.csc().rowOf.empty());
    EXPECT_EQ(moved.csc().valOf, fresh.valOf);
}

TEST_F(ParityTest, TransposeGatherBitIdenticalThroughCachedAndColdCsc)
{
    // sparseTransposeTimesDense is the kernel that reads the adjunct
    // (the outer product gathers over the matrix's own CSR arrays):
    // a cold call (fresh matrix, cache built inside the kernel) and
    // a warm call (cache primed beforehand) must agree bitwise.
    for (int threads : {1, 4}) {
        setGlobalThreads(threads);
        CsrMatrix cold;
        DenseMatrix b;
        makeOperands(graphFamilies().front().graph, cold, b);
        CsrMatrix warm = cold;
        (void)warm.csc();
        EXPECT_EQ(sparseTransposeTimesDense(cold, b).data(),
                  sparseTransposeTimesDense(warm, b).data())
            << threads << " threads";
    }
}

// ---------------------------------------------------------------------
// A_hat satisfies the CsrMatrix invariants
// ---------------------------------------------------------------------

/**
 * normalizedAdjacencyScaled(g, s) re-adopted through the validating
 * constructor: fromArrays accepts it unchanged (strictly ascending
 * columns, in range, consistent rowPtr), and every row holds its
 * self loop exactly once with value s[u] * s[u].
 */
void
expectAdjacencyIsValidCsr(const CsrGraph &g, const std::string &ctx)
{
    const std::vector<float> s = degreeScaling(g);
    const CsrMatrix a_hat = normalizedAdjacencyScaled(g, s);
    CsrMatrix adopted;
    ASSERT_NO_THROW(adopted = CsrMatrix::fromArrays(
                        a_hat.numRows, a_hat.numCols, a_hat.rowPtr,
                        a_hat.colIdx, a_hat.values))
        << ctx;
    EXPECT_EQ(adopted, a_hat) << ctx;
    for (NodeId u = 0; u < a_hat.numRows; ++u) {
        const CsrRow row = a_hat.row(u);
        const auto self = std::find(row.cols.begin(), row.cols.end(), u);
        ASSERT_NE(self, row.cols.end()) << ctx << " row " << u;
        EXPECT_EQ(std::count(row.cols.begin(), row.cols.end(), u), 1)
            << ctx << " row " << u;
        EXPECT_EQ(row.vals[self - row.cols.begin()], s[u] * s[u])
            << ctx << " row " << u;
    }
}

TEST(NormalizedAdjacency, AdoptsThroughFromArraysOnEveryFamily)
{
    for (const FamilyCase &fc : graphFamilies())
        expectAdjacencyIsValidCsr(fc.graph, fc.name);
}

TEST(NormalizedAdjacency, ExplicitSelfLoopsStayStrictlyAscending)
{
    // Self loops sit first (node 0), mid-row (node 3), last (node 6)
    // and alone (isolated node 7); nodes 1, 2, 4 and 5 have none, so
    // the builder inserts theirs at the sorted position.
    const std::vector<Edge> edges{{0, 0}, {0, 1}, {0, 5}, {3, 3},
                                  {1, 3}, {3, 5}, {2, 6}, {5, 6},
                                  {6, 6}, {7, 7}, {4, 2}};
    const CsrGraph g = CsrGraph::fromEdges(8, edges, /*symmetrize=*/true,
                                           /*keep_self_loops=*/true);
    ASSERT_TRUE(g.hasEdge(3, 3));
    ASSERT_TRUE(g.hasEdge(7, 7));
    expectAdjacencyIsValidCsr(g, "explicit self loops");
    // With the graph's own loop merged, each looped row gains no
    // entry and every other row gains one.
    EXPECT_EQ(normalizedAdjacency(g).nnz(), g.numEdges() + 4);
}

// ---------------------------------------------------------------------
// Islandize: pinned output at every thread count
// ---------------------------------------------------------------------

void
expectSamePartition(const IslandizationResult &a,
                    const IslandizationResult &b,
                    const std::string &ctx)
{
    ASSERT_EQ(a.islands.size(), b.islands.size()) << ctx;
    for (size_t i = 0; i < a.islands.size(); ++i) {
        EXPECT_EQ(a.islands[i].nodes, b.islands[i].nodes)
            << ctx << ", island " << i;
        EXPECT_EQ(a.islands[i].hubs, b.islands[i].hubs)
            << ctx << ", island " << i;
        EXPECT_EQ(a.islands[i].round, b.islands[i].round)
            << ctx << ", island " << i;
        EXPECT_EQ(a.islands[i].edgesScanned, b.islands[i].edgesScanned)
            << ctx << ", island " << i;
    }
    EXPECT_TRUE(a.role == b.role) << ctx;
    EXPECT_TRUE(a.islandOf == b.islandOf) << ctx;
    EXPECT_TRUE(a.hubRound == b.hubRound) << ctx;
    EXPECT_TRUE(a.interHubEdges == b.interHubEdges) << ctx;
    EXPECT_TRUE(a.thresholds == b.thresholds) << ctx;
    EXPECT_EQ(a.numRounds, b.numRounds) << ctx;
    ASSERT_EQ(a.rounds.size(), b.rounds.size()) << ctx;
    for (size_t r = 0; r < a.rounds.size(); ++r) {
        EXPECT_EQ(a.rounds[r].threshold, b.rounds[r].threshold)
            << ctx << ", round " << r;
        EXPECT_EQ(a.rounds[r].nodesChecked, b.rounds[r].nodesChecked)
            << ctx << ", round " << r;
        EXPECT_EQ(a.rounds[r].hubsDetected, b.rounds[r].hubsDetected)
            << ctx << ", round " << r;
        EXPECT_EQ(a.rounds[r].islandsFound, b.rounds[r].islandsFound)
            << ctx << ", round " << r;
    }
    ASSERT_EQ(a.taskTrace.size(), b.taskTrace.size()) << ctx;
    for (size_t i = 0; i < a.taskTrace.size(); ++i) {
        EXPECT_EQ(a.taskTrace[i].round, b.taskTrace[i].round)
            << ctx << ", trace " << i;
        EXPECT_EQ(a.taskTrace[i].outcome, b.taskTrace[i].outcome)
            << ctx << ", trace " << i;
        EXPECT_EQ(a.taskTrace[i].edgesScanned,
                  b.taskTrace[i].edgesScanned) << ctx << ", trace " << i;
        EXPECT_EQ(a.taskTrace[i].hubDegree, b.taskTrace[i].hubDegree)
            << ctx << ", trace " << i;
    }
    for (size_t r = 0; r < a.rounds.size(); ++r)
        EXPECT_EQ(a.rounds[r].edgesScanned, b.rounds[r].edgesScanned)
            << ctx << ", round " << r;
}

void
expectSameStats(const LocatorStats &a, const LocatorStats &b,
                const std::string &ctx)
{
    EXPECT_EQ(a.tasksGenerated, b.tasksGenerated) << ctx;
    EXPECT_EQ(a.tasksDroppedStartVisited, b.tasksDroppedStartVisited)
        << ctx;
    EXPECT_EQ(a.tasksDroppedCollision, b.tasksDroppedCollision) << ctx;
    EXPECT_EQ(a.tasksDroppedOversize, b.tasksDroppedOversize) << ctx;
    EXPECT_EQ(a.tasksInterHub, b.tasksInterHub) << ctx;
    EXPECT_EQ(a.islandsFound, b.islandsFound) << ctx;
    EXPECT_EQ(a.hubDetectChecks, b.hubDetectChecks) << ctx;
    EXPECT_EQ(a.adjListFetches, b.adjListFetches) << ctx;
    EXPECT_EQ(a.edgesScanned, b.edgesScanned) << ctx;
    EXPECT_EQ(a.edgesScannedWasted, b.edgesScannedWasted) << ctx;
}

/**
 * 64-bit FNV-1a digest of a full islandization result: islands (id =
 * position, node order, hubs, round, scan count), role, islandOf,
 * hubRound, inter-hub edges, thresholds, per-round records, every
 * LocatorStats field and, when `with_trace`, the task trace. Pinned
 * constants below are the locator's reference output: any change to
 * the partition, the statistics or the trace moves the digest.
 */
uint64_t
resultDigest(const IslandizationResult &r, bool with_trace)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    auto mixAll = [&mix](const auto &seq) {
        mix(seq.size());
        for (const auto &x : seq)
            mix(static_cast<uint64_t>(x));
    };
    mix(r.islands.size());
    for (const Island &isl : r.islands) {
        mixAll(isl.nodes);
        mixAll(isl.hubs);
        mix(static_cast<uint64_t>(isl.round));
        mix(isl.edgesScanned);
    }
    mixAll(r.role);
    mixAll(r.islandOf);
    mixAll(r.hubRound);
    mix(r.interHubEdges.size());
    for (const Edge &e : r.interHubEdges) {
        mix(e.first);
        mix(e.second);
    }
    mixAll(r.thresholds);
    mix(r.rounds.size());
    for (const RoundInfo &ri : r.rounds) {
        mix(ri.threshold);
        mix(ri.nodesChecked);
        mix(ri.hubsDetected);
        mix(ri.edgesScanned);
        mix(ri.islandsFound);
    }
    mix(static_cast<uint64_t>(r.numRounds));
    const LocatorStats &s = r.stats;
    for (uint64_t v : {s.tasksGenerated, s.tasksDroppedStartVisited,
                       s.tasksDroppedCollision, s.tasksDroppedOversize,
                       s.tasksInterHub, s.islandsFound,
                       s.hubDetectChecks, s.adjListFetches,
                       s.edgesScanned, s.edgesScannedWasted})
        mix(v);
    if (with_trace) {
        mix(r.taskTrace.size());
        for (const TaskTrace &t : r.taskTrace) {
            mix(t.round);
            mix(static_cast<uint64_t>(t.outcome));
            mix(t.edgesScanned);
            mix(t.hubDegree);
        }
    }
    return h;
}

/** Pinned reference digests of one islandize input. */
struct PinnedDigests
{
    /** Default (sequential TP-BFS) mode, with the task trace. */
    uint64_t sequential;
    /** parallelEngines mode: partition and stats, no trace. */
    uint64_t engines;
};

/** Digest of the parallelEngines run of `cfg` on `g` (no trace). */
uint64_t
engineDigest(const CsrGraph &g, LocatorConfig cfg)
{
    cfg.parallelEngines = true;
    return resultDigest(islandize(g, cfg), false);
}

TEST_F(ParityTest, IslandizePartitionIdenticalAcrossThreads)
{
    // Not just the partition but EVERY statistic and trace entry
    // must equal the 1-thread run and the pinned digest: the
    // cycle-level accelerator models consume these stats, and their
    // modeled latency must not depend on IGCN_THREADS.
    std::vector<FamilyCase> cases = graphFamilies();
    cases.push_back({"nell", buildDataset(Dataset::Nell).graph});
    cases.push_back({"reddit-x0.1",
                     buildDataset(Dataset::Reddit, 0.1).graph});
    const PinnedDigests pinned[] = {
        {0x8414d43ec20a744aull, 0x9a070094c583733full}, // hub-island
        {0x4a12db66e18cbc8dull, 0xbaec32c3f5a90187ull}, // erdos-renyi
        {0x1e799971ae5c8ccfull, 0xe683e6c95c42d7c2ull}, // rmat
        {0x5d236fa82ab95c6eull, 0x431720babf29c417ull}, // barabasi-albert
        {0xa44ceae2eda4bc69ull, 0x7d5d9a48345fcbbeull}, // nell
        {0xd7da703d26d7afccull, 0x419998a81d7e8400ull}, // reddit-x0.1
    };
    ASSERT_EQ(std::size(pinned), cases.size());
    for (size_t c = 0; c < cases.size(); ++c) {
        const FamilyCase &fc = cases[c];
        LocatorConfig cfg;
        cfg.recordTrace = true;
        setGlobalThreads(1);
        const IslandizationResult base = islandize(fc.graph, cfg);

        for (int threads : kThreadCounts) {
            const std::string ctx = std::string(fc.name) + " @ " +
                std::to_string(threads) + " threads";
            setGlobalThreads(threads);
            const IslandizationResult isl = islandize(fc.graph, cfg);
            expectSamePartition(isl, base, ctx);
            expectSameStats(isl.stats, base.stats, ctx);
            EXPECT_EQ(resultDigest(isl, true), pinned[c].sequential)
                << ctx;
            EXPECT_EQ(engineDigest(fc.graph, cfg), pinned[c].engines)
                << ctx << " (parallel engines)";
            // And bit-stable across reruns at the same count.
            const IslandizationResult again = islandize(fc.graph, cfg);
            expectSamePartition(again, isl, ctx + " (rerun)");
            expectSameStats(again.stats, isl.stats, ctx + " (rerun)");
        }
    }
}

TEST_F(ParityTest, IslandizeSmallIslandConfigAcrossThreads)
{
    // Small cmax exercises the oversize path (break condition B) and
    // its kept marks, which decide how many sibling tasks drop at
    // start: partition AND stats must match the pinned digests.
    auto hi = hubAndIslandGraph({.numNodes = 1200, .seed = 47});
    LocatorConfig cfg;
    cfg.maxIslandSize = 4;
    cfg.recordTrace = true;
    const PinnedDigests pinned = {0xeef2d7ec463b00e0ull,
                                  0x3c9b8a4a74c644e2ull};

    setGlobalThreads(1);
    const IslandizationResult base = islandize(hi.graph, cfg);

    for (int threads : kThreadCounts) {
        const std::string ctx = "cmax=4 @ " + std::to_string(threads);
        setGlobalThreads(threads);
        const IslandizationResult isl = islandize(hi.graph, cfg);
        expectSamePartition(isl, base, ctx);
        expectSameStats(isl.stats, base.stats, ctx);
        EXPECT_EQ(resultDigest(isl, true), pinned.sequential)
            << ctx;
        EXPECT_EQ(engineDigest(hi.graph, cfg), pinned.engines)
            << ctx << " (parallel engines)";
    }
}

// ---------------------------------------------------------------------
// Property/fuzz: randomized CSR vs. naive dense reference
// ---------------------------------------------------------------------

/**
 * Random CSR matrix with adversarial structure: empty rows, isolated
 * (never-referenced) columns, skewed per-row densities, rectangular
 * shapes. Duplicate-free by construction (dense origin).
 */
DenseMatrix
randomSparseDense(Rng &rng)
{
    const size_t rows = 1 + rng.nextBounded(32);
    const size_t cols = 1 + rng.nextBounded(32);
    DenseMatrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
        if (rng.nextBool(0.25))
            continue; // empty row
        // Power-law row densities: a few heavy rows, many light ones.
        const double density =
            static_cast<double>(rng.nextPowerLaw(1, 100, 2.0)) / 100.0;
        for (size_t c = 0; c < cols; ++c) {
            if (rng.nextBool(density)) {
                float v = rng.nextFloat(2.0f);
                m.at(r, c) = v == 0.0f ? 1.0f : v;
            }
        }
    }
    return m;
}

TEST_F(ParityTest, FuzzAgainstNaiveDenseReference)
{
    Rng rng(0xF00D);
    for (int threads : {1, 3, 8}) {
        setGlobalThreads(threads);
        for (int iter = 0; iter < 25; ++iter) {
            const DenseMatrix ad = randomSparseDense(rng);
            const CsrMatrix a = denseToCsrFeatures(ad);
            DenseMatrix b(ad.cols(), 1 + rng.nextBounded(20));
            b.fillRandom(rng);
            const DenseMatrix expected = naiveDenseProduct(ad, b);
            const std::string ctx = "iter " + std::to_string(iter) +
                " (" + std::to_string(ad.rows()) + "x" +
                std::to_string(ad.cols()) + "x" +
                std::to_string(b.cols()) + ") @ " +
                std::to_string(threads) + " threads";

            for (const KernelCase &k : kKernels) {
                const DenseMatrix c = k.fn(a, b, nullptr);
                EXPECT_LE(maxAbsDiff(c, expected), kTol)
                    << k.name << ", " << ctx;
            }

            // Transpose kernel against A^T B; B must have numRows
            // rows here.
            DenseMatrix bt(ad.rows(), b.cols());
            bt.fillRandom(rng);
            const DenseMatrix t = sparseTransposeTimesDense(a, bt);
            EXPECT_LE(maxAbsDiff(t, naiveDenseTransposeProduct(ad, bt)),
                      kTol) << "transpose, " << ctx;
        }
    }
}

TEST_F(ParityTest, FuzzIslandizeOnRandomGraphs)
{
    // Random graphs with isolated vertices and skewed degrees: the
    // partition must be identical at 1 and 8 threads.
    Rng seeds(0xBEEF);
    for (int iter = 0; iter < 8; ++iter) {
        const NodeId n = 20 + static_cast<NodeId>(seeds.nextBounded(300));
        const double deg = 0.5 + 5.0 * seeds.nextDouble();
        CsrGraph g = erdosRenyi(n, deg, seeds.next());
        LocatorConfig cfg;
        cfg.maxIslandSize = 1 + static_cast<NodeId>(seeds.nextBounded(16));

        setGlobalThreads(1);
        const IslandizationResult base = islandize(g, cfg);
        setGlobalThreads(8);
        const IslandizationResult isl = islandize(g, cfg);
        expectSamePartition(isl, base,
                            "iter " + std::to_string(iter));
        expectSameStats(isl.stats, base.stats,
                        "iter " + std::to_string(iter));
    }
}

} // namespace
} // namespace igcn
