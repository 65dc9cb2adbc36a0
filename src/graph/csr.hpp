/**
 * @file
 * Compressed Sparse Row graph representation.
 *
 * The CSR graph is the substrate every other module builds on: the
 * islandization algorithms traverse it, the SpMM kernels interpret it
 * as the adjacency matrix A, and the accelerator timing models derive
 * op and traffic counts from it.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "runtime/thread_annotations.hpp"

namespace igcn {

using NodeId = uint32_t;
using EdgeId = uint64_t;

/** A directed edge (src, dst). Undirected graphs store both arcs. */
using Edge = std::pair<NodeId, NodeId>;

/**
 * Thread-safe lazily built adjunct slot for derived indexes (the CSC
 * view of a CSR matrix, the in-edge index of a graph). get(build)
 * constructs the value exactly once — concurrent first callers
 * serialize on the slot's mutex and all see the same object — and
 * returns a reference that stays valid until invalidate().
 *
 * An adjunct is derived state, never identity: copies of the owner
 * start with an empty slot (cheaper to rebuild than to keep
 * consistent), copy-assignment drops the target's built value so a
 * reassigned owner cannot serve a stale index, and equality ignores
 * the slot entirely. Moves *transfer* the built value — the
 * destination receives exactly the arrays the adjunct describes —
 * and leave the source slot empty, so a moved-from owner can never
 * serve an index for contents it no longer has. invalidate() must
 * not race with readers holding a reference — the same rule as
 * mutating the owning container itself.
 */
template <typename T>
class LazyAdjunct
{
  public:
    LazyAdjunct() = default;
    LazyAdjunct(const LazyAdjunct &) noexcept {}
    LazyAdjunct(LazyAdjunct &&other) noexcept { stealFrom(other); }
    LazyAdjunct &
    operator=(const LazyAdjunct &) noexcept
    {
        invalidate();
        return *this;
    }
    LazyAdjunct &
    operator=(LazyAdjunct &&other) noexcept
    {
        if (this != &other)
            stealFrom(other);
        return *this;
    }

    /** Adjuncts never participate in the owner's equality. */
    bool operator==(const LazyAdjunct &) const { return true; }

    /** The built value, constructing it via build() exactly once. */
    template <typename BuildFn>
    const T &
    get(BuildFn &&build) const
    {
        // Lock-free once built: per-element accessors (inNeighbors,
        // inDegree) call get() per query, so the steady-state path
        // must not serialize parallel traversals on the mutex.
        if (const T *p = built.load(std::memory_order_acquire))
            return *p;
        MutexLock lock(mutex);
        if (!value) {
            value = std::make_unique<T>(build());
            built.store(value.get(), std::memory_order_release);
        }
        return *value;
    }

    /** Drop the built value; the next get() rebuilds. */
    void
    invalidate() const
    {
        MutexLock lock(mutex);
        built.store(nullptr, std::memory_order_release);
        value.reset();
    }

  private:
    // Opted out of the thread-safety analysis: std::scoped_lock over
    // two capabilities (deadlock-free by construction — moves are
    // never concurrent with each other on the same pair) is beyond
    // what the analysis models.
    void
    stealFrom(LazyAdjunct &other) IGCN_NO_THREAD_SAFETY_ANALYSIS
    {
        std::scoped_lock lock(mutex, other.mutex);
        value = std::move(other.value);
        built.store(value.get(), std::memory_order_release);
        other.built.store(nullptr, std::memory_order_release);
    }

    mutable Mutex mutex;
    mutable std::atomic<const T *> built{nullptr};
    mutable std::unique_ptr<T> value IGCN_GUARDED_BY(mutex);
};

/**
 * Counting-sort transpose of a CSR index (row_ptr, col_idx) with
 * num_cols columns: fills out_ptr (size num_cols + 1) and out_idx
 * with the same entries grouped by column; entries within a column
 * come out in ascending row order because rows are swept ascending.
 * When values and out_val are supplied, the per-entry payload is
 * carried to the transposed slot. An empty row_ptr (moved-from
 * container) is treated as zero rows, yielding an empty but
 * well-formed index. Shared by CsrGraph::inEdges() and
 * CsrMatrix::csc() — the one CSC adjunct of the float CSR type, for
 * adjacency and feature matrices alike — so there is exactly one
 * build loop to maintain.
 */
void transposeCsrIndex(NodeId num_cols,
                       const std::vector<EdgeId> &row_ptr,
                       const std::vector<NodeId> &col_idx,
                       std::vector<EdgeId> &out_ptr,
                       std::vector<NodeId> &out_idx,
                       const std::vector<float> *values = nullptr,
                       std::vector<float> *out_val = nullptr);

/**
 * Immutable CSR graph. Neighbor lists are sorted by destination id
 * and contain no duplicates; self loops are allowed only when
 * explicitly requested by the builder.
 */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Build from an arbitrary edge list.
     *
     * @param num_nodes   number of nodes (ids in [0, num_nodes))
     * @param edges       directed edge list; duplicates are removed
     * @param symmetrize  if true, insert the reverse of every edge
     * @param keep_self_loops if false, drop (v, v) edges
     */
    [[nodiscard]] static CsrGraph fromEdges(NodeId num_nodes,
                              const std::vector<Edge> &edges,
                              bool symmetrize = true,
                              bool keep_self_loops = false);

    /**
     * Adopt prebuilt CSR arrays directly (the O(E) path for callers
     * that already produce sorted, deduplicated adjacency — subgraph
     * extraction, the merge-based edge edit). Invariants are
     * validated in O(E): row_ptr starts at 0, is monotone, and ends
     * at col_idx.size(); every row's columns are strictly ascending
     * and < numNodes.
     *
     * @throws std::invalid_argument on any violation.
     */
    [[nodiscard]] static CsrGraph fromCsrArrays(std::vector<EdgeId> row_ptr,
                                  std::vector<NodeId> col_idx);

    /**
     * Copy of this graph with `fresh` undirected edges added and
     * `stale` undirected edges removed, in ONE per-row merge sweep of
     * the sorted adjacency — the epoch-build path of the online
     * serving subsystem, and the only edge-edit entry point (pass an
     * empty span for a one-sided edit). O(E + k log k) for k edited
     * edges, no edge-list rebuild.
     *  - Additions insert both arcs. Duplicates within `fresh` (either
     *    orientation) and edges already present are absorbed; self
     *    loops are dropped.
     *  - Removals drop both arcs (a self loop (v, v) is the single
     *    arc). Duplicates within `stale` (either orientation)
     *    collapse to one removal. Removal is strict: every requested
     *    edge must be present, else std::invalid_argument names it
     *    (the serving layer screens its spans against hasEdge first;
     *    a silent divergence between a caller's view and the graph
     *    cannot pass unnoticed).
     *  - An edge in both spans (either orientation) is an ambiguous
     *    edit and throws std::invalid_argument — the UpdateApplier's
     *    last-write-wins coalescing guarantees disjoint spans.
     *  - An endpoint out of range in either span throws
     *    std::out_of_range.
     */
    [[nodiscard]] CsrGraph withEditedEdges(std::span<const Edge> fresh,
                             std::span<const Edge> stale) const;

    /**
     * Number of nodes. A graph whose rowPtr is empty (moved-from, or
     * otherwise never built) reports 0 instead of underflowing
     * rowPtr.size() - 1 to 0xFFFFFFFF.
     */
    NodeId
    numNodes() const
    {
        return rowPtr.empty() ? 0
                              : static_cast<NodeId>(rowPtr.size() - 1);
    }

    /** Number of stored (directed) edges. */
    EdgeId numEdges() const { return static_cast<EdgeId>(colIdx.size()); }

    /** Out-degree of node v. */
    NodeId
    degree(NodeId v) const
    {
        return static_cast<NodeId>(rowPtr[v + 1] - rowPtr[v]);
    }

    /** Sorted neighbor list of node v. */
    std::span<const NodeId>
    neighbors(NodeId v) const
    {
        return {colIdx.data() + rowPtr[v],
                colIdx.data() + rowPtr[v + 1]};
    }

    /**
     * In-edge (reverse adjacency) index: inPtr[v]..inPtr[v+1] spans
     * the sources of edges into v, sorted ascending. Built lazily on
     * first use and cached on the graph (thread-safe one-time
     * construction), so repeated in-edge traversals never rebuild it.
     */
    struct InEdgeIndex
    {
        std::vector<EdgeId> inPtr; ///< size numNodes + 1
        std::vector<NodeId> srcOf; ///< source node per in-edge
    };

    /** The cached in-edge index (lazily built, shared by reference). */
    const InEdgeIndex &inEdges() const;

    /** Sorted list of nodes with an edge into v. */
    std::span<const NodeId>
    inNeighbors(NodeId v) const
    {
        const InEdgeIndex &idx = inEdges();
        return {idx.srcOf.data() + idx.inPtr[v],
                idx.srcOf.data() + idx.inPtr[v + 1]};
    }

    /** In-degree of node v. */
    NodeId
    inDegree(NodeId v) const
    {
        const InEdgeIndex &idx = inEdges();
        return static_cast<NodeId>(idx.inPtr[v + 1] - idx.inPtr[v]);
    }

    /** True if (u, v) is an edge. O(log degree(u)). */
    bool hasEdge(NodeId u, NodeId v) const;

    /** Maximum degree over all nodes. */
    NodeId maxDegree() const;

    /** Average degree. */
    double avgDegree() const;

    /** True if for every edge (u, v) the edge (v, u) also exists. */
    bool isSymmetric() const;

    /** Number of self loops stored. */
    EdgeId numSelfLoops() const;

    /**
     * Relabel nodes: node v becomes position perm[v] in the new
     * graph (perm is a bijection on [0, numNodes)).
     */
    [[nodiscard]] CsrGraph permuted(const std::vector<NodeId> &perm) const;

    /** Full directed edge list (u, v) in row order. */
    std::vector<Edge> toEdges() const;

    /** Row pointer array (size numNodes + 1). */
    const std::vector<EdgeId> &rows() const { return rowPtr; }

    /** Column index array (size numEdges). */
    const std::vector<NodeId> &cols() const { return colIdx; }

    /**
     * Source node of arc slot e — the row whose rowPtr span contains
     * position e of cols() — so (arcSource(e), cols()[e]) is the
     * e-th stored arc. O(log numNodes). Lets callers sample edges
     * uniformly by arc slot (the trace generator's deletion events).
     * @throws std::out_of_range when e >= numEdges().
     */
    NodeId arcSource(EdgeId e) const;

    bool operator==(const CsrGraph &other) const = default;

  private:
    std::vector<EdgeId> rowPtr{0};
    std::vector<NodeId> colIdx;
    LazyAdjunct<InEdgeIndex> inEdgeCache;
};

/**
 * Receptive field of a micro-batch: the L-hop neighborhood of a set
 * of target nodes, relabeled to a compact sub-CSR.
 *
 * Local ids are assigned by ascending *global* id, so each local
 * row's neighbor list preserves the global neighbor order exactly —
 * a forward pass over `sub` accumulates every row in the same order
 * as the whole-graph pass, which is what makes batched L-hop
 * inference bit-identical to whole-graph inference for the targets
 * (see subgraphForward in gcn/layer.hpp).
 */
struct LHopSubgraph
{
    /** Subgraph nodes as ascending global ids; local id = position. */
    std::vector<NodeId> nodes;
    /** Local id of each requested target, in request order. */
    std::vector<NodeId> targetLocal;
    /** Induced subgraph over `nodes`, in local ids. */
    CsrGraph sub;
};

/**
 * The L-hop node set: ascending global ids of every node within
 * `hops` of a target. hops = L is exactly the input set an L-layer
 * GCN needs to reproduce the targets' outputs: after layer l, all
 * nodes within distance L - l of a target have full-graph-exact
 * values, so after L layers the targets do. Cheap relative to the
 * sub-CSR build — callers that may fall back to a whole-graph pass
 * (the serving engine's wholeGraphFraction check) decide on this
 * before paying for inducedSubgraph.
 */
std::vector<NodeId> lHopNodeSet(const CsrGraph &g,
                                std::span<const NodeId> targets,
                                int hops);

/**
 * Build the induced sub-CSR over `nodes` (ascending global ids, as
 * produced by lHopNodeSet) and bind `targets` (each must be in
 * `nodes`; duplicates allowed, one targetLocal entry per occurrence).
 */
LHopSubgraph inducedSubgraph(const CsrGraph &g,
                             std::vector<NodeId> nodes,
                             std::span<const NodeId> targets);

/** Histogram of node degrees: result[d] = number of nodes of degree d. */
std::vector<EdgeId> degreeHistogram(const CsrGraph &g);

/**
 * Connected components of an undirected graph.
 * @return component id per node, and the number of components.
 */
std::pair<std::vector<NodeId>, NodeId>
connectedComponents(const CsrGraph &g);

/** True if perm is a bijection on [0, n). */
bool isPermutation(const std::vector<NodeId> &perm);

/** Inverse of a permutation. */
std::vector<NodeId> inversePermutation(const std::vector<NodeId> &perm);

} // namespace igcn
