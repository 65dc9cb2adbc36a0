/**
 * @file
 * Incremental islandization tests: after arbitrary edge additions,
 * the updated result must satisfy exactly the postconditions of a
 * fresh run (full classification, cmax bounds, edge coverage), while
 * islands untouched by the update survive verbatim and absorbed
 * updates do no work.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/incremental.hpp"
#include "core/permute.hpp"
#include "core/redundancy.hpp"
#include "graph/generators.hpp"

namespace igcn {
namespace {

/** Fresh-run postconditions on (g, isl). */
void
checkPostconditions(const CsrGraph &g, const IslandizationResult &isl,
                    const LocatorConfig &cfg)
{
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_NE(isl.role[v], NodeRole::Unclassified) << v;
    for (const Island &island : isl.islands) {
        EXPECT_GE(island.nodes.size(), 1u);
        EXPECT_LE(island.nodes.size(), cfg.maxIslandSize);
    }
    // Coverage: classifyCoverage finds zero outliers and the pruning
    // baseline identity holds (these jointly require the inter-hub
    // map and island hub lists to be complete).
    EXPECT_EQ(classifyCoverage(g, isl).outliers, 0u);
    PruningReport report = countPruning(g, isl, {});
    EXPECT_EQ(report.baselineAggOps(), g.numEdges() + g.numNodes());
}

TEST(Incremental, InternalIslandEdgeAbsorbed)
{
    auto hi = hubAndIslandGraph({.numNodes = 600, .seed = 4});
    LocatorConfig cfg;
    auto isl = islandize(hi.graph, cfg);

    // Find an island with >= 2 nodes and add an internal edge.
    const Island *target = nullptr;
    for (const Island &island : isl.islands)
        if (island.nodes.size() >= 3) {
            target = &island;
            break;
        }
    ASSERT_NE(target, nullptr);
    std::vector<Edge> added{{target->nodes[0], target->nodes[2]}};
    CsrGraph g2 = hi.graph.withEditedEdges(added, {});

    IncrementalStats stats;
    auto updated = updateIslandization(g2, isl, added, {}, cfg, &stats);
    EXPECT_EQ(stats.islandsDissolved, 0u);
    EXPECT_GE(stats.edgesAbsorbed, 1u);
    EXPECT_EQ(updated.islands.size(), isl.islands.size());
    checkPostconditions(g2, updated, cfg);
}

TEST(Incremental, CrossIslandEdgeRepairsLocally)
{
    auto hi = hubAndIslandGraph({.numNodes = 1200, .seed = 9});
    LocatorConfig cfg;
    auto isl = islandize(hi.graph, cfg);

    // Connect two distinct islands.
    uint32_t ia = IslandizationResult::kNoIsland;
    uint32_t ib = IslandizationResult::kNoIsland;
    NodeId u = 0, v = 0;
    for (NodeId n = 0; n < hi.graph.numNodes(); ++n) {
        if (isl.role[n] != NodeRole::IslandNode)
            continue;
        if (ia == IslandizationResult::kNoIsland) {
            ia = isl.islandOf[n];
            u = n;
        } else if (isl.islandOf[n] != ia) {
            ib = isl.islandOf[n];
            v = n;
            break;
        }
    }
    ASSERT_NE(ib, IslandizationResult::kNoIsland);

    std::vector<Edge> added{{u, v}};
    CsrGraph g2 = hi.graph.withEditedEdges(added, {});
    IncrementalStats stats;
    auto updated = updateIslandization(g2, isl, added, {}, cfg, &stats);
    EXPECT_EQ(stats.islandsDissolved, 2u);
    EXPECT_GT(stats.nodesReclassified, 0u);
    checkPostconditions(g2, updated, cfg);

    // Untouched islands survive verbatim: compare node multisets.
    std::set<std::vector<NodeId>> old_islands, new_islands;
    for (const Island &island : isl.islands)
        if (!island.nodes.empty())
            old_islands.insert(island.nodes);
    for (const Island &island : updated.islands)
        new_islands.insert(island.nodes);
    size_t preserved = 0;
    for (const auto &nodes : old_islands)
        if (new_islands.count(nodes))
            preserved++;
    EXPECT_GE(preserved, old_islands.size() - 4);
}

TEST(Incremental, HubHubEdgeIsInterHub)
{
    auto hi = hubAndIslandGraph({.numNodes = 800, .seed = 6});
    LocatorConfig cfg;
    auto isl = islandize(hi.graph, cfg);

    std::vector<NodeId> hubs;
    for (NodeId n = 0; n < hi.graph.numNodes(); ++n)
        if (isl.role[n] == NodeRole::Hub)
            hubs.push_back(n);
    ASSERT_GE(hubs.size(), 2u);
    // Pick a hub pair without an existing edge.
    NodeId h1 = hubs[0], h2 = hubs[1];
    for (size_t i = 1; i < hubs.size(); ++i) {
        if (!hi.graph.hasEdge(h1, hubs[i])) {
            h2 = hubs[i];
            break;
        }
    }
    std::vector<Edge> added{{h1, h2}};
    CsrGraph g2 = hi.graph.withEditedEdges(added, {});
    IncrementalStats stats;
    auto updated = updateIslandization(g2, isl, added, {}, cfg, &stats);
    EXPECT_EQ(stats.islandsDissolved, 0u);
    checkPostconditions(g2, updated, cfg);
}

TEST(Incremental, RandomEdgeStream)
{
    // Property test: apply batches of random edges; postconditions
    // hold after every batch.
    auto hi = hubAndIslandGraph({.numNodes = 900, .seed = 42});
    LocatorConfig cfg;
    CsrGraph g = hi.graph;
    auto isl = islandize(g, cfg);
    Rng rng(17);

    for (int batch = 0; batch < 6; ++batch) {
        std::vector<Edge> added;
        for (int e = 0; e < 12; ++e) {
            NodeId u = static_cast<NodeId>(
                rng.nextBounded(g.numNodes()));
            NodeId v = static_cast<NodeId>(
                rng.nextBounded(g.numNodes()));
            if (u != v)
                added.emplace_back(u, v);
        }
        CsrGraph g2 = g.withEditedEdges(added, {});
        isl = updateIslandization(g2, isl, added, {}, cfg);
        g = g2;
        checkPostconditions(g, isl, cfg);
    }
}

TEST(Incremental, BatchedMixedStreamEquivalentToOneBigBatch)
{
    // The serving subsystem's exact usage pattern: the update applier
    // feeds updateIslandization many small coalesced `std::span`
    // batches. Applying a mixed stream (intra-island, cross-island,
    // hub-hub, hub-island edges) as 12 batches of 5 must land on the
    // same final graph as one 60-edge batch, and both islandizations
    // must satisfy the full fresh-run postconditions with comparable
    // pruning quality.
    auto hi = hubAndIslandGraph({.numNodes = 1000, .seed = 31});
    LocatorConfig cfg;
    auto isl0 = islandize(hi.graph, cfg);

    Rng rng(8);
    std::vector<Edge> added;
    while (added.size() < 60) {
        const auto u = static_cast<NodeId>(
            rng.nextBounded(hi.graph.numNodes()));
        const auto v = static_cast<NodeId>(
            rng.nextBounded(hi.graph.numNodes()));
        if (u != v)
            added.emplace_back(u, v);
    }

    // One big batch.
    CsrGraph g_big = hi.graph.withEditedEdges(added, {});
    auto isl_big =
        updateIslandization(g_big, isl0, added, {}, cfg);

    // Many small batches, graph evolving between them (subspans of
    // the same stream, as the scheduler's coalescing produces).
    CsrGraph g_small = hi.graph;
    auto isl_small = isl0;
    for (size_t i = 0; i < added.size(); i += 5) {
        std::span<const Edge> batch(added.data() + i, 5);
        g_small = g_small.withEditedEdges(batch, {});
        isl_small =
            updateIslandization(g_small, isl_small, batch, {}, cfg);
        checkPostconditions(g_small, isl_small, cfg);
    }

    // Identical final graphs (merge-insertion is batch-size
    // invariant), and both valid islandizations of it.
    EXPECT_EQ(g_big, g_small);
    checkPostconditions(g_big, isl_big, cfg);
    checkPostconditions(g_small, isl_small, cfg);

    // Equivalent quality: the partitions may legitimately differ
    // (island discovery order differs), but neither path may degrade
    // the structure the consumer exploits.
    const double rate_big =
        countPruning(g_big, isl_big, {}).aggPruningRate();
    const double rate_small =
        countPruning(g_small, isl_small, {}).aggPruningRate();
    EXPECT_NEAR(rate_big, rate_small, 0.08);
}

TEST(Incremental, IntraIslandRemovalDissolvesTheIsland)
{
    // Deleting an edge *inside* an island may disconnect it, so the
    // island must be dissolved and re-derived, not patched.
    auto hi = hubAndIslandGraph({.numNodes = 600, .seed = 4});
    LocatorConfig cfg;
    auto isl = islandize(hi.graph, cfg);

    const Island *target = nullptr;
    Edge internal{0, 0};
    for (const Island &island : isl.islands) {
        for (NodeId u : island.nodes)
            for (NodeId v : island.nodes)
                if (u < v && hi.graph.hasEdge(u, v)) {
                    target = &island;
                    internal = {u, v};
                }
        if (target)
            break;
    }
    ASSERT_NE(target, nullptr);

    std::vector<Edge> removed{internal};
    CsrGraph g2 = hi.graph.withEditedEdges({}, removed);
    IncrementalStats stats;
    auto updated =
        updateIslandization(g2, isl, {}, removed, cfg, &stats);
    EXPECT_GE(stats.islandsDissolved, 1u);
    EXPECT_GT(stats.nodesReclassified, 0u);
    checkPostconditions(g2, updated, cfg);
}

TEST(Incremental, HubHubRemovalOnlyErasesInterHubEntry)
{
    auto hi = hubAndIslandGraph({.numNodes = 800, .seed = 6});
    LocatorConfig cfg;
    auto isl = islandize(hi.graph, cfg);
    ASSERT_FALSE(isl.interHubEdges.empty());

    // Pick an inter-hub edge whose endpoints keep degree >= 2, so no
    // demotion cascades: the repair must be pure bookkeeping.
    Edge pick{0, 0};
    bool found = false;
    for (const Edge &e : isl.interHubEdges)
        if (hi.graph.degree(e.first) > 2 &&
            hi.graph.degree(e.second) > 2) {
            pick = e;
            found = true;
            break;
        }
    ASSERT_TRUE(found);

    std::vector<Edge> removed{pick};
    CsrGraph g2 = hi.graph.withEditedEdges({}, removed);
    IncrementalStats stats;
    auto updated =
        updateIslandization(g2, isl, {}, removed, cfg, &stats);
    EXPECT_EQ(stats.islandsDissolved, 0u);
    EXPECT_EQ(stats.hubsDemoted, 0u);
    EXPECT_EQ(stats.edgesRemovedInterHub, 1u);
    EXPECT_EQ(stats.nodesReclassified, 0u);
    EXPECT_EQ(updated.islands.size(), isl.islands.size());
    EXPECT_EQ(updated.interHubEdges.size(),
              isl.interHubEdges.size() - 1);
    checkPostconditions(g2, updated, cfg);
}

TEST(Incremental, StarvedHubIsDemoted)
{
    // Remove all but one edge of a hub: it falls below the demotion
    // floor, every island listing it dissolves, and the repair
    // re-classifies the region with no stale hub-list entries.
    auto hi = hubAndIslandGraph({.numNodes = 700, .seed = 11});
    LocatorConfig cfg;
    auto isl = islandize(hi.graph, cfg);

    NodeId hub = 0;
    bool found = false;
    for (NodeId v = 0; v < hi.graph.numNodes() && !found; ++v)
        if (isl.role[v] == NodeRole::Hub && hi.graph.degree(v) >= 3)
        {
            hub = v;
            found = true;
        }
    ASSERT_TRUE(found);

    auto nbrs = hi.graph.neighbors(hub);
    std::vector<Edge> removed;
    for (size_t i = 0; i + 1 < nbrs.size(); ++i)
        removed.emplace_back(hub, nbrs[i]);

    CsrGraph g2 = hi.graph.withEditedEdges({}, removed);
    ASSERT_EQ(g2.degree(hub), 1u);
    IncrementalStats stats;
    auto updated =
        updateIslandization(g2, isl, {}, removed, cfg, &stats);
    EXPECT_GE(stats.hubsDemoted, 1u);
    EXPECT_NE(updated.role[hub], NodeRole::Unclassified);
    checkPostconditions(g2, updated, cfg);
    // No island may still list the demoted node unless it
    // re-qualified as a hub during the repair.
    if (updated.role[hub] != NodeRole::Hub) {
        for (const Island &island : updated.islands) {
            EXPECT_FALSE(std::binary_search(island.hubs.begin(),
                                            island.hubs.end(), hub));
        }
    }
}

TEST(Incremental, MixedAddRemoveSpanMatchesPostconditions)
{
    // The applier's exact shape: one span carrying disjoint adds and
    // removes, applied in one updateIslandization call.
    auto hi = hubAndIslandGraph({.numNodes = 900, .seed = 15});
    LocatorConfig cfg;
    CsrGraph g = hi.graph;
    auto isl = islandize(g, cfg);
    Rng rng(27);

    for (int batch = 0; batch < 5; ++batch) {
        std::vector<Edge> adds, removes;
        std::set<Edge> touched;
        for (int e = 0; e < 8; ++e) {
            const auto u =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            const auto v =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            if (u == v)
                continue;
            const Edge ne{std::min(u, v), std::max(u, v)};
            if (!touched.insert(ne).second)
                continue;
            if (g.hasEdge(u, v))
                removes.push_back(ne);
            else
                adds.push_back(ne);
        }
        CsrGraph g2 = g.withEditedEdges(adds, removes);
        isl = updateIslandization(g2, isl, adds, removes, cfg);
        g = g2;
        checkPostconditions(g, isl, cfg);
    }
}

TEST(Incremental, MatchesFreshPruningQuality)
{
    // Incremental repair shouldn't leave meaningfully less pruning
    // opportunity than a fresh run on the same final graph.
    auto hi = hubAndIslandGraph(
        {.numNodes = 1500, .intraIslandProb = 0.7, .seed = 23});
    LocatorConfig cfg;
    CsrGraph g = hi.graph;
    auto isl = islandize(g, cfg);
    Rng rng(5);
    std::vector<Edge> added;
    for (int e = 0; e < 40; ++e)
        added.emplace_back(
            static_cast<NodeId>(rng.nextBounded(g.numNodes())),
            static_cast<NodeId>(rng.nextBounded(g.numNodes())));
    std::erase_if(added, [](const Edge &e) {
        return e.first == e.second;
    });
    CsrGraph g2 = g.withEditedEdges(added, {});
    auto incremental = updateIslandization(g2, isl, added, {}, cfg);
    auto fresh = islandize(g2, cfg);
    double inc_rate =
        countPruning(g2, incremental, {}).aggPruningRate();
    double fresh_rate = countPruning(g2, fresh, {}).aggPruningRate();
    EXPECT_GT(inc_rate, fresh_rate - 0.08);
}

} // namespace
} // namespace igcn
