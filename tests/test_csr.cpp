/**
 * @file
 * Unit tests for the CSR graph substrate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"

namespace igcn {
namespace {

TEST(CsrGraph, EmptyGraph)
{
    CsrGraph g = CsrGraph::fromEdges(0, {});
    EXPECT_EQ(g.numNodes(), 0u);
    EXPECT_EQ(g.numEdges(), 0u);
}

TEST(CsrGraph, DefaultAndMovedFromGraphsReportZeroNodes)
{
    // Regression: numNodes() used to compute rowPtr.size() - 1, which
    // underflows to 0xFFFFFFFF on an empty rowPtr. A default graph
    // must report 0, and so must a moved-from graph (whose rowPtr is
    // left empty), instead of sending every numNodes()-bounded loop
    // on a 4-billion-node walk.
    CsrGraph def;
    EXPECT_EQ(def.numNodes(), 0u);
    EXPECT_EQ(def.numEdges(), 0u);
    EXPECT_DOUBLE_EQ(def.avgDegree(), 0.0);
    EXPECT_EQ(def.maxDegree(), 0u);
    EXPECT_EQ(def.numSelfLoops(), 0u);
    EXPECT_TRUE(def.isSymmetric());

    CsrGraph donor = CsrGraph::fromEdges(3, {{0, 1}, {1, 2}});
    CsrGraph sink = std::move(donor);
    EXPECT_EQ(sink.numNodes(), 3u);
    EXPECT_EQ(donor.numNodes(), 0u);
    EXPECT_EQ(donor.numEdges(), 0u);
    EXPECT_EQ(donor.maxDegree(), 0u);
    EXPECT_TRUE(degreeHistogram(donor).size() == 1u);
    auto [comp, n] = connectedComponents(donor);
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(comp.empty());
}

TEST(CsrGraph, SingleEdgeSymmetrized)
{
    CsrGraph g = CsrGraph::fromEdges(3, {{0, 1}});
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(CsrGraph, DuplicateEdgesRemoved)
{
    CsrGraph g = CsrGraph::fromEdges(2, {{0, 1}, {0, 1}, {1, 0}});
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(CsrGraph, SelfLoopsDroppedByDefault)
{
    CsrGraph g = CsrGraph::fromEdges(2, {{0, 0}, {0, 1}});
    EXPECT_EQ(g.numSelfLoops(), 0u);
    CsrGraph g2 = CsrGraph::fromEdges(2, {{0, 0}, {0, 1}}, true, true);
    EXPECT_EQ(g2.numSelfLoops(), 1u);
}

TEST(CsrGraph, NeighborsSorted)
{
    CsrGraph g = CsrGraph::fromEdges(5, {{2, 4}, {2, 0}, {2, 3}});
    auto nbrs = g.neighbors(2);
    ASSERT_EQ(nbrs.size(), 3u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(CsrGraph, OutOfRangeEdgeThrows)
{
    EXPECT_THROW(CsrGraph::fromEdges(2, {{0, 5}}), std::out_of_range);
}

TEST(CsrGraph, DegreeAndAverages)
{
    CsrGraph g = starGraph(5);
    EXPECT_EQ(g.degree(0), 4u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.maxDegree(), 4u);
    EXPECT_DOUBLE_EQ(g.avgDegree(), 8.0 / 5.0);
}

TEST(CsrGraph, SymmetryDetected)
{
    CsrGraph sym = CsrGraph::fromEdges(3, {{0, 1}, {1, 2}});
    EXPECT_TRUE(sym.isSymmetric());
    CsrGraph asym = CsrGraph::fromEdges(3, {{0, 1}}, /*symmetrize=*/false);
    EXPECT_FALSE(asym.isSymmetric());
}

TEST(CsrGraph, PermutedPreservesStructure)
{
    CsrGraph g = pathGraph(4); // 0-1-2-3
    std::vector<NodeId> perm = {3, 2, 1, 0};
    CsrGraph p = g.permuted(perm);
    EXPECT_TRUE(p.hasEdge(3, 2));
    EXPECT_TRUE(p.hasEdge(2, 1));
    EXPECT_TRUE(p.hasEdge(1, 0));
    EXPECT_EQ(p.numEdges(), g.numEdges());
    // Degrees are preserved under relabeling.
    for (NodeId v = 0; v < 4; ++v)
        EXPECT_EQ(p.degree(perm[v]), g.degree(v));
}

TEST(CsrGraph, ToEdgesRoundTrip)
{
    CsrGraph g = completeGraph(5);
    CsrGraph g2 = CsrGraph::fromEdges(5, g.toEdges(), false);
    EXPECT_EQ(g, g2);
}

TEST(CsrGraph, DegreeHistogram)
{
    CsrGraph g = starGraph(5);
    auto hist = degreeHistogram(g);
    ASSERT_EQ(hist.size(), 5u);
    EXPECT_EQ(hist[1], 4u);
    EXPECT_EQ(hist[4], 1u);
}

TEST(CsrGraph, ConnectedComponents)
{
    CsrGraph g = CsrGraph::fromEdges(6, {{0, 1}, {1, 2}, {4, 5}});
    auto [comp, n] = connectedComponents(g);
    EXPECT_EQ(n, 3u); // {0,1,2}, {3}, {4,5}
    EXPECT_EQ(comp[0], comp[1]);
    EXPECT_EQ(comp[1], comp[2]);
    EXPECT_EQ(comp[4], comp[5]);
    EXPECT_NE(comp[0], comp[3]);
    EXPECT_NE(comp[0], comp[4]);
}

TEST(CsrGraph, InEdgeIndexMatchesBruteForceReverseAdjacency)
{
    // Directed (non-symmetrized) graph so in- and out-adjacency
    // genuinely differ.
    CsrGraph g = CsrGraph::fromEdges(
        5, {{0, 2}, {1, 2}, {3, 2}, {2, 0}, {4, 0}},
        /*symmetrize=*/false);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        std::vector<NodeId> expected;
        for (NodeId u = 0; u < g.numNodes(); ++u)
            if (g.hasEdge(u, v))
                expected.push_back(u);
        auto in = g.inNeighbors(v);
        ASSERT_EQ(in.size(), expected.size()) << "node " << v;
        EXPECT_TRUE(std::equal(in.begin(), in.end(),
                               expected.begin())) << "node " << v;
        EXPECT_EQ(g.inDegree(v), expected.size()) << "node " << v;
        EXPECT_TRUE(std::is_sorted(in.begin(), in.end()))
            << "node " << v;
    }
    // The index is cached: repeated calls hand back the same object.
    EXPECT_EQ(&g.inEdges(), &g.inEdges());
}

TEST(CsrGraph, MoveTransfersCachedInEdgeIndexAndClearsSource)
{
    // A move hands the built adjunct to the destination (which now
    // owns exactly the arrays it describes — no rebuild) and clears
    // the source slot, so the moved-from graph can never serve an
    // index for the 3-node contents it no longer has.
    CsrGraph g = CsrGraph::fromEdges(3, {{0, 1}, {1, 2}});
    const CsrGraph::InEdgeIndex *built = &g.inEdges();
    CsrGraph h = std::move(g);
    EXPECT_EQ(&h.inEdges(), built);
    EXPECT_EQ(h.inDegree(1), 2u);
    EXPECT_TRUE(g.inEdges().srcOf.empty());
    EXPECT_EQ(g.inEdges().inPtr.size(), 1u); // 0 nodes, well-formed
}

TEST(CsrGraph, InEdgeIndexOnSymmetricGraphEqualsOutAdjacency)
{
    CsrGraph g = erdosRenyi(200, 5.0, 7);
    ASSERT_TRUE(g.isSymmetric());
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        auto out = g.neighbors(v);
        auto in = g.inNeighbors(v);
        ASSERT_EQ(in.size(), out.size());
        EXPECT_TRUE(std::equal(in.begin(), in.end(), out.begin()));
    }
}

TEST(CsrGraph, FromCsrArraysValidatesInvariants)
{
    // Valid adoption round-trips.
    CsrGraph g = CsrGraph::fromCsrArrays({0, 2, 3, 4},
                                         {1, 2, 0, 0});
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.neighbors(0).size(), 2u);

    // Row pointer must start at 0 and end at col_idx.size().
    EXPECT_THROW(CsrGraph::fromCsrArrays({1, 2}, {0}),
                 std::invalid_argument);
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 2}, {0}),
                 std::invalid_argument);
    EXPECT_THROW(CsrGraph::fromCsrArrays({}, {}),
                 std::invalid_argument);
    // Monotonicity.
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 2, 1, 3}, {0, 1, 0}),
                 std::invalid_argument);
    // Column range.
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 1}, {5}),
                 std::invalid_argument);
    // Strictly ascending (sorted, no duplicates) per row.
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 2}, {1, 0}),
                 std::invalid_argument);
    EXPECT_THROW(CsrGraph::fromCsrArrays({0, 2}, {1, 1}),
                 std::invalid_argument);
}

/**
 * Ground-truth oracle for withEditedEdges: a fromEdges rebuild of
 * (E ∪ fresh) \ stale as an arc set — fresh edges contribute both
 * arcs and drop self loops, stale edges remove both arcs, and any
 * self loop already stored in g is kept.
 */
CsrGraph
modelRebuild(const CsrGraph &g, const std::vector<Edge> &fresh,
             const std::vector<Edge> &stale)
{
    const std::vector<Edge> existing = g.toEdges();
    std::set<Edge> arcs(existing.begin(), existing.end());
    for (const auto &[u, v] : fresh)
        if (u != v) {
            arcs.insert({u, v});
            arcs.insert({v, u});
        }
    for (const auto &[u, v] : stale) {
        arcs.erase({u, v});
        arcs.erase({v, u});
    }
    return CsrGraph::fromEdges(
        g.numNodes(), std::vector<Edge>(arcs.begin(), arcs.end()),
        /*symmetrize=*/false, /*keep_self_loops=*/true);
}

TEST(CsrGraph, WithEditedEdgesAdditionsMatchEdgeListRebuild)
{
    // Differential: the O(E + k log k) merge of an addition-only
    // edit must equal the model rebuild, across graph families and
    // adversarial additions (duplicates, already-present edges, self
    // loops, both orientations of the same edge).
    Rng rng(99);
    std::vector<CsrGraph> graphs;
    graphs.push_back(erdosRenyi(300, 6.0, 1));
    graphs.push_back(pathGraph(50));
    graphs.push_back(starGraph(40));
    graphs.push_back(CsrGraph::fromEdges(10, {}));
    for (const CsrGraph &g : graphs) {
        std::vector<Edge> added;
        for (int i = 0; i < 40; ++i) {
            const auto u =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            const auto v =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            added.emplace_back(u, v);
            if (i % 5 == 0)
                added.emplace_back(v, u); // reverse duplicate
        }
        EXPECT_EQ(g.withEditedEdges(added, {}),
                  modelRebuild(g, added, {}));
    }
    EXPECT_THROW(pathGraph(4).withEditedEdges(
                     std::vector<Edge>{{0, 9}}, {}),
                 std::out_of_range);
}

TEST(CsrGraph, WithEditedEdgesAdditionNoOps)
{
    // The documented no-ops of the insertion side: self loops are
    // dropped, duplicates within one span and edges already present
    // are absorbed — the graph must come out unchanged, not throw.
    CsrGraph g = pathGraph(5);
    EXPECT_EQ(g.withEditedEdges(std::vector<Edge>{{2, 2}}, {}), g);
    EXPECT_EQ(g.withEditedEdges(std::vector<Edge>{{0, 1}, {1, 0}}, {}),
              g);
    CsrGraph once = g.withEditedEdges(std::vector<Edge>{{0, 3}}, {});
    CsrGraph twice = g.withEditedEdges(
        std::vector<Edge>{{0, 3}, {3, 0}, {0, 3}}, {});
    EXPECT_EQ(once, twice);
}

TEST(CsrGraph, WithEditedEdgesRemovalsMatchEdgeListRebuild)
{
    // Differential mirror of the insertion test: a removal-only edit
    // must equal the model rebuild, across graph families.
    Rng rng(41);
    std::vector<CsrGraph> graphs;
    graphs.push_back(erdosRenyi(300, 6.0, 2));
    graphs.push_back(pathGraph(50));
    graphs.push_back(starGraph(40));
    for (const CsrGraph &g : graphs) {
        // Sample distinct existing undirected edges.
        std::vector<Edge> pool;
        for (const auto &[u, v] : g.toEdges())
            if (u < v)
                pool.emplace_back(u, v);
        std::vector<Edge> removed;
        for (int i = 0; i < 25 && !pool.empty(); ++i) {
            const size_t j = rng.nextBounded(pool.size());
            removed.push_back(pool[j]);
            pool[j] = pool.back();
            pool.pop_back();
        }
        CsrGraph pruned = g.withEditedEdges({}, removed);
        EXPECT_EQ(pruned, modelRebuild(g, {}, removed));
        EXPECT_EQ(pruned.numEdges(),
                  g.numEdges() - 2 * removed.size());
    }
}

TEST(CsrGraph, WithEditedEdgesMixedSpansMatchEdgeListRebuild)
{
    // The one-pass merge sweep must equal a fromEdges rebuild of
    // (E ∪ fresh) \ stale for disjoint spans, across graph families
    // and adversarial spans (duplicates, both orientations, self
    // loops among the adds).
    Rng rng(57);
    std::vector<CsrGraph> graphs;
    graphs.push_back(erdosRenyi(300, 6.0, 3));
    graphs.push_back(pathGraph(50));
    graphs.push_back(starGraph(40));
    for (const CsrGraph &g : graphs) {
        std::set<Edge> present;
        for (const auto &[u, v] : g.toEdges())
            if (u < v)
                present.insert({u, v});
        std::vector<Edge> fresh, stale;
        std::set<Edge> touched; // keeps the two spans disjoint
        for (int i = 0; i < 30; ++i) {
            const auto u =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            const auto v =
                static_cast<NodeId>(rng.nextBounded(g.numNodes()));
            const Edge e{std::min(u, v), std::max(u, v)};
            if (u != v && !touched.insert(e).second)
                continue;
            if (u == v || !present.count(e)) {
                fresh.emplace_back(u, v);
                if (i % 4 == 0)
                    fresh.emplace_back(v, u); // reverse duplicate
            } else {
                stale.push_back(e);
            }
        }
        EXPECT_EQ(g.withEditedEdges(fresh, stale),
                  modelRebuild(g, fresh, stale));
    }
}

TEST(CsrGraph, WithEditedEdgesDegenerateSpans)
{
    // Empty spans give a structural copy; one-sided edits equal the
    // model rebuild of that side alone.
    CsrGraph g = erdosRenyi(100, 4.0, 9);
    EXPECT_EQ(g.withEditedEdges({}, {}), g);
    const std::vector<Edge> add{{0, 50}, {1, 60}};
    EXPECT_EQ(g.withEditedEdges(add, {}), modelRebuild(g, add, {}));
    std::vector<Edge> rem;
    for (const auto &[u, v] : g.toEdges())
        if (u < v && rem.size() < 3)
            rem.emplace_back(u, v);
    EXPECT_EQ(g.withEditedEdges({}, rem), modelRebuild(g, {}, rem));
}

TEST(CsrGraph, WithEditedEdgesNegativePaths)
{
    CsrGraph g = pathGraph(6); // edges (i, i+1)
    // Out-of-range endpoints in either span.
    EXPECT_THROW(g.withEditedEdges(std::vector<Edge>{{0, 9}}, {}),
                 std::out_of_range);
    EXPECT_THROW(g.withEditedEdges({}, std::vector<Edge>{{0, 9}}),
                 std::out_of_range);
    // Removing an absent edge stays strict.
    EXPECT_THROW(g.withEditedEdges({}, std::vector<Edge>{{0, 5}}),
                 std::invalid_argument);
    // An edge in both spans is an ambiguous edit, either orientation.
    EXPECT_THROW(g.withEditedEdges(std::vector<Edge>{{0, 2}},
                                   std::vector<Edge>{{0, 2}}),
                 std::invalid_argument);
    EXPECT_THROW(g.withEditedEdges(std::vector<Edge>{{0, 2}},
                                   std::vector<Edge>{{2, 0}}),
                 std::invalid_argument);
}

TEST(CsrGraph, WithEditedEdgesRemovalNegativePaths)
{
    CsrGraph g = pathGraph(5); // edges 0-1, 1-2, 2-3, 3-4
    auto removeEdges = [](const CsrGraph &from,
                          std::vector<Edge> stale) {
        return from.withEditedEdges({}, stale);
    };

    // Removing a nonexistent edge errors loudly.
    EXPECT_THROW(removeEdges(g, {{0, 3}}), std::invalid_argument);
    // ... also when mixed with present edges, in any position.
    EXPECT_THROW(removeEdges(g, {{0, 1}, {0, 4}}), std::invalid_argument);
    // Out-of-range endpoints are a distinct loud error.
    EXPECT_THROW(removeEdges(g, {{0, 9}}), std::out_of_range);
    // A self loop is an edge like any other: absent here, so loud.
    EXPECT_THROW(removeEdges(g, {{2, 2}}), std::invalid_argument);
    // ... and removable when the graph actually stores it.
    CsrGraph with_loop = CsrGraph::fromEdges(
        3, {{0, 1}, {1, 1}}, /*symmetrize=*/true,
        /*keep_self_loops=*/true);
    CsrGraph no_loop = removeEdges(with_loop, {{1, 1}});
    EXPECT_EQ(no_loop.numSelfLoops(), 0u);
    EXPECT_TRUE(no_loop.hasEdge(0, 1));

    // Duplicates within one span (and both orientations of one
    // edge) collapse to a single removal: documented set semantics,
    // mirroring the absorbed duplicate additions.
    CsrGraph a = removeEdges(g, {{1, 2}, {2, 1}, {1, 2}});
    CsrGraph b = removeEdges(g, {{1, 2}});
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.hasEdge(1, 2));
    EXPECT_FALSE(a.hasEdge(2, 1));

    // Add-then-remove round-trips to the original graph.
    CsrGraph grown = g.withEditedEdges(std::vector<Edge>{{0, 4}}, {});
    EXPECT_EQ(removeEdges(grown, {{4, 0}}), g);
}

TEST(CsrGraph, ArcSourceInvertsRowLayout)
{
    CsrGraph g = erdosRenyi(80, 4.0, 6);
    EdgeId e = 0;
    for (NodeId u = 0; u < g.numNodes(); ++u)
        for ([[maybe_unused]] NodeId v : g.neighbors(u))
            EXPECT_EQ(g.arcSource(e++), u);
    EXPECT_THROW(g.arcSource(g.numEdges()), std::out_of_range);
}

TEST(CsrGraph, LHopSubgraphLevels)
{
    // Path 0-1-2-3-4-5: 2 hops from node 0 reach {0, 1, 2}.
    CsrGraph p = pathGraph(6);
    std::vector<NodeId> targets{0};
    LHopSubgraph ext =
        inducedSubgraph(p, lHopNodeSet(p, targets, 2), targets);
    EXPECT_EQ(ext.nodes, (std::vector<NodeId>{0, 1, 2}));
    EXPECT_EQ(ext.targetLocal, (std::vector<NodeId>{0}));
    // Induced edges: 0-1, 1-2 (both arcs).
    EXPECT_EQ(ext.sub.numEdges(), 4u);

    // 0 hops: the targets alone, with only target-target edges.
    std::vector<NodeId> two{1, 2};
    LHopSubgraph zero =
        inducedSubgraph(p, lHopNodeSet(p, two, 0), two);
    EXPECT_EQ(zero.nodes, (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(zero.sub.numEdges(), 2u);

    // Duplicate targets each get a targetLocal entry.
    std::vector<NodeId> dup{3, 3, 1};
    LHopSubgraph d = inducedSubgraph(p, lHopNodeSet(p, dup, 1), dup);
    EXPECT_EQ(d.targetLocal.size(), 3u);
    EXPECT_EQ(d.targetLocal[0], d.targetLocal[1]);

    EXPECT_THROW(lHopNodeSet(p, std::vector<NodeId>{9}, 1),
                 std::out_of_range);
    // A target outside the supplied node set cannot be bound.
    EXPECT_THROW(inducedSubgraph(p, {1, 2}, std::vector<NodeId>{3}),
                 std::invalid_argument);
}

TEST(CsrGraph, LHopSubgraphPreservesNeighborOrder)
{
    // On a random graph, every subgraph row must be the global row
    // filtered to the subgraph, in the same (ascending) order — the
    // property that makes batched inference accumulation order match
    // the whole-graph pass.
    CsrGraph g = erdosRenyi(200, 8.0, 3);
    std::vector<NodeId> targets{5, 17, 100};
    LHopSubgraph ext =
        inducedSubgraph(g, lHopNodeSet(g, targets, 2), targets);
    ASSERT_TRUE(std::is_sorted(ext.nodes.begin(), ext.nodes.end()));
    for (size_t l = 0; l < ext.nodes.size(); ++l) {
        std::vector<NodeId> expected;
        for (NodeId v : g.neighbors(ext.nodes[l])) {
            auto it = std::lower_bound(ext.nodes.begin(),
                                       ext.nodes.end(), v);
            if (it != ext.nodes.end() && *it == v)
                expected.push_back(static_cast<NodeId>(
                    it - ext.nodes.begin()));
        }
        auto got = ext.sub.neighbors(static_cast<NodeId>(l));
        ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()),
                  expected)
            << "row " << l;
    }
    // Every target's full neighborhood is present (hops >= 1).
    for (NodeId t : targets)
        for (NodeId v : g.neighbors(t))
            EXPECT_TRUE(std::binary_search(ext.nodes.begin(),
                                           ext.nodes.end(), v));
}

TEST(Permutation, Validity)
{
    EXPECT_TRUE(isPermutation({2, 0, 1}));
    EXPECT_FALSE(isPermutation({0, 0, 1}));
    EXPECT_FALSE(isPermutation({0, 3, 1}));
}

TEST(Permutation, Inverse)
{
    std::vector<NodeId> perm = {2, 0, 1};
    auto inv = inversePermutation(perm);
    for (NodeId v = 0; v < 3; ++v)
        EXPECT_EQ(inv[perm[v]], v);
}

} // namespace
} // namespace igcn
