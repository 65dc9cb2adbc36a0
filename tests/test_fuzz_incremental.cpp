/**
 * @file
 * Differential fuzz harness for the incremental islandization path.
 *
 * Seeded randomized add/remove edge streams over the four graph
 * families, replayed through `withEditedEdges` +
 * `updateIslandization` (the serving applier's edit path) against
 * three independent oracles:
 *
 *  1. **Structural validity** after every batch: every node
 *     classified, island sizes within [1, cmax], and *exact* edge
 *     coverage — every edge is intra-island, listed island-hub, or a
 *     recorded inter-hub edge; the inter-hub map and every hub list
 *     contain no stale entries (sorted, unique, hub-roled, and
 *     backed by live edges). This is the full fresh-run
 *     postcondition set, checked directly rather than through
 *     derived metrics, so a dissolve-on-remove bug (stale hub list,
 *     leaked inter-hub entry, unclassified dirty node) fails loudly.
 *  2. **Thread invariance**: the entire replay — partition (island
 *     membership in BFS discovery order, roles, islandOf, hub
 *     rounds, inter-hub map) and the per-batch IncrementalStats
 *     sequence — is bit-identical at IGCN_THREADS 1/4/8, and
 *     from-scratch `islandize` on the evolved graph is itself
 *     bit-identical across the same thread counts (partition, stats,
 *     and task trace): the locator's determinism contract extends to
 *     the dynamic-graph path.
 *  3. **From-scratch equivalence**: the evolved graph equals a
 *     ground-truth edge-list rebuild (after every batch, in
 *     EditedEpochsMatchModelRebuildAfterEveryBatch, and at the end
 *     of every replay), and the incremental partition
 *     matches from-scratch `islandize` on that graph in pruning
 *     quality (the partitions may legitimately differ in discovery
 *     order; the structure the consumer exploits may not degrade).
 *
 * Seed count per family comes from IGCN_FUZZ_SEEDS (default 12; CI
 * sets 50 → 200 seeds). The whole suite also runs under ASan+UBSan
 * in the sanitizer CI job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <vector>

#include "core/incremental.hpp"
#include "core/redundancy.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"

namespace igcn {
namespace {

int
fuzzSeedsPerFamily()
{
    if (const char *env = std::getenv("IGCN_FUZZ_SEEDS")) {
        const int v = std::atoi(env);
        if (v > 0)
            return v;
    }
    return 12;
}

struct Family
{
    const char *name;
    CsrGraph (*make)(uint64_t seed);
};

const Family kFamilies[] = {
    {"hub-island",
     [](uint64_t seed) {
         HubIslandParams hp;
         hp.numNodes = 420;
         hp.seed = seed;
         return hubAndIslandGraph(hp).graph;
     }},
    {"erdos-renyi",
     [](uint64_t seed) { return erdosRenyi(360, 5.0, seed); }},
    {"rmat",
     [](uint64_t seed) {
         return rmat(256, 1400, 0.57, 0.19, 0.19, seed);
     }},
    {"barabasi-albert",
     [](uint64_t seed) { return barabasiAlbert(300, 3, seed); }},
};

Edge
norm(NodeId u, NodeId v)
{
    return {std::min(u, v), std::max(u, v)};
}

/** One coalesced update span: additions and removals, disjoint. */
struct Batch
{
    std::vector<Edge> adds;
    std::vector<Edge> removes;
};

/**
 * Seeded add/remove stream over g0. A ground-truth edge *set* is
 * maintained alongside (the differential model): removals sample
 * uniformly from it, additions sample absent pairs, and within one
 * batch the two lists stay disjoint so the spans satisfy
 * updateIslandization's precondition directly.
 */
std::vector<Batch>
makeStream(const CsrGraph &g0, uint64_t seed, int num_batches,
           int events_per_batch, std::vector<Edge> *final_edges)
{
    Rng rng(seed);
    std::vector<Edge> present;
    for (const auto &[u, v] : g0.toEdges())
        if (u < v)
            present.push_back({u, v});
    std::set<Edge> member(present.begin(), present.end());

    std::vector<Batch> stream;
    for (int b = 0; b < num_batches; ++b) {
        Batch batch;
        std::set<Edge> touched;
        for (int e = 0; e < events_per_batch; ++e) {
            const bool remove =
                !present.empty() && rng.nextBool(0.5);
            if (remove) {
                const size_t i = rng.nextBounded(present.size());
                const Edge edge = present[i];
                if (!touched.insert(edge).second)
                    continue; // already mutated in this span
                batch.removes.push_back(edge);
                member.erase(edge);
                present[i] = present.back();
                present.pop_back();
            } else {
                const auto u = static_cast<NodeId>(
                    rng.nextBounded(g0.numNodes()));
                const auto v = static_cast<NodeId>(
                    rng.nextBounded(g0.numNodes()));
                if (u == v || member.count(norm(u, v)) ||
                    !touched.insert(norm(u, v)).second)
                    continue;
                batch.adds.push_back(norm(u, v));
                member.insert(norm(u, v));
                present.push_back(norm(u, v));
            }
        }
        stream.push_back(std::move(batch));
    }
    if (final_edges)
        final_edges->assign(member.begin(), member.end());
    return stream;
}

/**
 * The full fresh-run postcondition set, checked structurally (see
 * file comment). Returns via gtest expectations; `ctx` names the
 * failing seed/family/batch.
 */
void
verifyIslandization(const CsrGraph &g, const IslandizationResult &isl,
                    const LocatorConfig &cfg, const std::string &ctx)
{
    const NodeId n = g.numNodes();
    ASSERT_EQ(isl.role.size(), n) << ctx;
    ASSERT_EQ(isl.islandOf.size(), n) << ctx;

    // Node classification and islandOf consistency.
    std::vector<uint32_t> seen_in(n, IslandizationResult::kNoIsland);
    for (uint32_t i = 0; i < isl.islands.size(); ++i) {
        const Island &island = isl.islands[i];
        EXPECT_GE(island.nodes.size(), 1u) << ctx;
        EXPECT_LE(island.nodes.size(), cfg.maxIslandSize) << ctx;
        for (NodeId v : island.nodes) {
            EXPECT_EQ(isl.role[v], NodeRole::IslandNode) << ctx;
            EXPECT_EQ(isl.islandOf[v], i) << ctx;
            EXPECT_EQ(seen_in[v], IslandizationResult::kNoIsland)
                << ctx << ": node " << v << " in two islands";
            seen_in[v] = i;
        }
        // Hub lists: sorted, unique, hub-roled, backed by an edge.
        EXPECT_TRUE(std::is_sorted(island.hubs.begin(),
                                   island.hubs.end())) << ctx;
        EXPECT_EQ(std::adjacent_find(island.hubs.begin(),
                                     island.hubs.end()),
                  island.hubs.end()) << ctx;
        for (NodeId h : island.hubs) {
            EXPECT_EQ(isl.role[h], NodeRole::Hub)
                << ctx << ": island " << i << " lists non-hub " << h;
            bool adjacent = false;
            for (NodeId v : island.nodes)
                if (g.hasEdge(v, h)) {
                    adjacent = true;
                    break;
                }
            EXPECT_TRUE(adjacent)
                << ctx << ": island " << i << " lists stale hub "
                << h;
        }
    }
    for (NodeId v = 0; v < n; ++v) {
        ASSERT_NE(isl.role[v], NodeRole::Unclassified)
            << ctx << ": node " << v;
        if (isl.role[v] == NodeRole::IslandNode)
            EXPECT_EQ(seen_in[v], isl.islandOf[v]) << ctx;
        else
            EXPECT_EQ(isl.islandOf[v],
                      IslandizationResult::kNoIsland)
                << ctx << ": hub " << v;
    }

    // Inter-hub map: sorted unique normalized pairs of live hub-hub
    // edges (no stale entries).
    EXPECT_TRUE(std::is_sorted(isl.interHubEdges.begin(),
                               isl.interHubEdges.end())) << ctx;
    std::set<Edge> inter_hub(isl.interHubEdges.begin(),
                             isl.interHubEdges.end());
    EXPECT_EQ(inter_hub.size(), isl.interHubEdges.size()) << ctx;
    for (const auto &[a, b] : isl.interHubEdges) {
        EXPECT_LE(a, b) << ctx;
        EXPECT_TRUE(g.hasEdge(a, b))
            << ctx << ": stale inter-hub edge (" << a << ", " << b
            << ")";
        EXPECT_EQ(isl.role[a], NodeRole::Hub) << ctx;
        EXPECT_EQ(isl.role[b], NodeRole::Hub) << ctx;
    }

    // Exact edge coverage.
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v : g.neighbors(u)) {
            if (v < u)
                continue; // undirected: check each edge once
            const bool u_hub = isl.role[u] == NodeRole::Hub;
            const bool v_hub = isl.role[v] == NodeRole::Hub;
            if (u_hub && v_hub) {
                EXPECT_TRUE(inter_hub.count(norm(u, v)))
                    << ctx << ": uncovered hub-hub edge (" << u
                    << ", " << v << ")";
            } else if (!u_hub && !v_hub) {
                EXPECT_EQ(isl.islandOf[u], isl.islandOf[v])
                    << ctx << ": cross-island edge (" << u << ", "
                    << v << ")";
            } else {
                const NodeId inode = u_hub ? v : u;
                const NodeId hub = u_hub ? u : v;
                const auto &hubs =
                    isl.islands[isl.islandOf[inode]].hubs;
                EXPECT_TRUE(std::binary_search(hubs.begin(),
                                               hubs.end(), hub))
                    << ctx << ": island " << isl.islandOf[inode]
                    << " missing hub " << hub << " for edge (" << u
                    << ", " << v << ")";
            }
        }
    }

    // The consumer's accounting identity on top of the structure.
    EXPECT_EQ(countPruning(g, isl, {}).baselineAggOps(),
              g.numEdges() + g.numNodes()) << ctx;
}

/** Partition + BFS-order equality between two islandizations. */
void
expectIdenticalPartition(const IslandizationResult &a,
                         const IslandizationResult &b,
                         const std::string &ctx)
{
    ASSERT_EQ(a.islands.size(), b.islands.size()) << ctx;
    for (size_t i = 0; i < a.islands.size(); ++i) {
        EXPECT_EQ(a.islands[i].nodes, b.islands[i].nodes)
            << ctx << ": island " << i << " BFS order";
        EXPECT_EQ(a.islands[i].hubs, b.islands[i].hubs)
            << ctx << ": island " << i << " hub list";
        EXPECT_EQ(a.islands[i].round, b.islands[i].round)
            << ctx << ": island " << i << " round";
    }
    EXPECT_EQ(a.role, b.role) << ctx;
    EXPECT_EQ(a.islandOf, b.islandOf) << ctx;
    EXPECT_EQ(a.hubRound, b.hubRound) << ctx;
    EXPECT_EQ(a.interHubEdges, b.interHubEdges) << ctx;
    EXPECT_EQ(a.stats.islandsFound, b.stats.islandsFound) << ctx;
}

/** Locator stats + trace equality (from-scratch runs only). */
void
expectIdenticalStatsAndTrace(const IslandizationResult &a,
                             const IslandizationResult &b,
                             const std::string &ctx)
{
    EXPECT_EQ(a.stats.tasksGenerated, b.stats.tasksGenerated) << ctx;
    EXPECT_EQ(a.stats.tasksDroppedCollision,
              b.stats.tasksDroppedCollision) << ctx;
    EXPECT_EQ(a.stats.tasksDroppedOversize,
              b.stats.tasksDroppedOversize) << ctx;
    EXPECT_EQ(a.stats.edgesScanned, b.stats.edgesScanned) << ctx;
    EXPECT_EQ(a.stats.edgesScannedWasted, b.stats.edgesScannedWasted)
        << ctx;
    EXPECT_EQ(a.thresholds, b.thresholds) << ctx;
    ASSERT_EQ(a.taskTrace.size(), b.taskTrace.size()) << ctx;
    for (size_t i = 0; i < a.taskTrace.size(); ++i) {
        EXPECT_EQ(a.taskTrace[i].round, b.taskTrace[i].round) << ctx;
        EXPECT_EQ(a.taskTrace[i].outcome, b.taskTrace[i].outcome)
            << ctx;
        EXPECT_EQ(a.taskTrace[i].edgesScanned,
                  b.taskTrace[i].edgesScanned) << ctx;
    }
}

/** One full incremental replay of a stream at a fixed thread count. */
struct ReplayResult
{
    CsrGraph graph;
    IslandizationResult islands;
    std::vector<IncrementalStats> statsPerBatch;
};

ReplayResult
replayStream(const CsrGraph &g0, const std::vector<Batch> &stream,
             const LocatorConfig &cfg, int threads, bool verify,
             const std::string &ctx)
{
    setGlobalThreads(threads);
    ReplayResult r;
    r.graph = g0;
    r.islands = islandize(g0, cfg);
    for (size_t b = 0; b < stream.size(); ++b) {
        const Batch &batch = stream[b];
        // One merge sweep per batch: makeStream keeps adds/removes
        // disjoint, exactly withEditedEdges' contract.
        CsrGraph next =
            r.graph.withEditedEdges(batch.adds, batch.removes);
        IncrementalStats stats;
        r.islands = updateIslandization(next, r.islands, batch.adds,
                                        batch.removes, cfg, &stats);
        r.graph = std::move(next);
        r.statsPerBatch.push_back(stats);
        if (verify)
            verifyIslandization(r.graph, r.islands, cfg,
                                ctx + " batch " + std::to_string(b));
    }
    return r;
}

TEST(FuzzIncremental, AddRemoveStreamsMatchFromScratchAtAllThreadCounts)
{
    const int seeds = fuzzSeedsPerFamily();
    LocatorConfig cfg;
    cfg.recordTrace = true; // locked into the cross-thread equality

    for (const Family &family : kFamilies) {
        for (int seed = 0; seed < seeds; ++seed) {
            const std::string ctx = std::string(family.name) +
                " seed " + std::to_string(seed);
            const CsrGraph g0 =
                family.make(1000 + static_cast<uint64_t>(seed));
            std::vector<Edge> model_edges;
            const std::vector<Batch> stream =
                makeStream(g0, 77 * seed + 5, /*num_batches=*/5,
                           /*events_per_batch=*/14, &model_edges);

            // Oracle 1: structural validity after every batch
            // (verified once, on the 1-thread replay).
            ReplayResult base = replayStream(g0, stream, cfg, 1,
                                             /*verify=*/true, ctx);

            // Oracle 3a: the evolved graph equals the ground-truth
            // edge-list rebuild (differential for the merge kernels).
            EXPECT_EQ(base.graph,
                      CsrGraph::fromEdges(g0.numNodes(), model_edges,
                                          /*symmetrize=*/true))
                << ctx;

            // Oracle 2: the whole replay is thread-invariant, and so
            // is from-scratch islandize on the evolved graph.
            setGlobalThreads(1);
            const IslandizationResult fresh1 =
                islandize(base.graph, cfg);
            for (int threads : {4, 8}) {
                const std::string tctx =
                    ctx + " @ " + std::to_string(threads) + "T";
                ReplayResult other =
                    replayStream(g0, stream, cfg, threads,
                                 /*verify=*/false, tctx);
                EXPECT_EQ(other.graph, base.graph) << tctx;
                expectIdenticalPartition(other.islands, base.islands,
                                         tctx + " (incremental)");
                EXPECT_EQ(other.statsPerBatch, base.statsPerBatch)
                    << tctx << " (incremental stats)";

                setGlobalThreads(threads);
                const IslandizationResult fresh =
                    islandize(base.graph, cfg);
                expectIdenticalPartition(fresh, fresh1,
                                         tctx + " (from-scratch)");
                expectIdenticalStatsAndTrace(fresh, fresh1, tctx);
            }

            // Oracle 3b: from-scratch equivalence of the partitions —
            // both valid (fresh verified by the same oracle), with
            // comparable pruning opportunity for the consumer.
            verifyIslandization(base.graph, fresh1, cfg,
                                ctx + " (from-scratch)");
            const double inc_rate =
                countPruning(base.graph, base.islands, {})
                    .aggPruningRate();
            const double fresh_rate =
                countPruning(base.graph, fresh1, {}).aggPruningRate();
            EXPECT_GT(inc_rate, fresh_rate - 0.12) << ctx;
        }
    }
    setGlobalThreads(0);
}

TEST(FuzzIncremental, EditedEpochsMatchModelRebuildAfterEveryBatch)
{
    // Per-batch differential lock for the one-pass epoch build: over
    // the fuzz corpus, the withEditedEdges(adds, removes) chain must
    // equal a fromEdges rebuild of the model edge set after every
    // batch, so a divergence is pinned to the batch that caused it.
    const int seeds = fuzzSeedsPerFamily();
    for (const Family &family : kFamilies) {
        for (int seed = 0; seed < seeds; ++seed) {
            const std::string ctx = std::string(family.name) +
                " seed " + std::to_string(seed) + " (one-pass)";
            const CsrGraph g0 =
                family.make(2000 + static_cast<uint64_t>(seed));
            const std::vector<Batch> stream =
                makeStream(g0, 31 * seed + 7, /*num_batches=*/5,
                           /*events_per_batch=*/14, nullptr);

            std::set<Edge> model;
            for (const auto &[u, v] : g0.toEdges())
                if (u < v)
                    model.insert({u, v});
            CsrGraph g = g0;
            for (size_t b = 0; b < stream.size(); ++b) {
                const Batch &batch = stream[b];
                g = g.withEditedEdges(batch.adds, batch.removes);
                model.insert(batch.adds.begin(), batch.adds.end());
                for (const Edge &e : batch.removes)
                    model.erase(e);
                ASSERT_EQ(g, CsrGraph::fromEdges(
                                 g0.numNodes(),
                                 std::vector<Edge>(model.begin(),
                                                   model.end()),
                                 /*symmetrize=*/true))
                    << ctx << " batch " << b;
            }
        }
    }
}

TEST(FuzzIncremental, DeletionOnlyStreamDrainsToIsolatedGraph)
{
    // Adversarial tail case: delete *every* edge, a few at a time.
    // Hubs get starved below the demotion floor, islands dissolve and
    // re-form around shrinking cores, and the final state must be all
    // singleton islands with an empty inter-hub map.
    LocatorConfig cfg;
    CsrGraph g = hubAndIslandGraph({.numNodes = 120, .seed = 3}).graph;
    IslandizationResult isl = islandize(g, cfg);
    Rng rng(9);

    std::vector<Edge> present;
    for (const auto &[u, v] : g.toEdges())
        if (u < v)
            present.push_back({u, v});

    int batch_no = 0;
    while (!present.empty()) {
        std::vector<Edge> removes;
        const size_t k = std::min<size_t>(
            present.size(), 1 + rng.nextBounded(9));
        for (size_t i = 0; i < k; ++i) {
            const size_t j = rng.nextBounded(present.size());
            removes.push_back(present[j]);
            present[j] = present.back();
            present.pop_back();
        }
        g = g.withEditedEdges({}, removes);
        isl = updateIslandization(g, isl, {}, removes, cfg);
        verifyIslandization(g, isl, cfg,
                            "drain batch " +
                                std::to_string(batch_no++));
    }
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_TRUE(isl.interHubEdges.empty());
    EXPECT_EQ(isl.islands.size(), g.numNodes());
    EXPECT_EQ(isl.numHubs(), 0u);
}

} // namespace
} // namespace igcn
