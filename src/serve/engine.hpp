/**
 * @file
 * Graph-state epochs and the micro-batched L-hop inference engine.
 *
 * Concurrency model (the subsystem's torn-read story): everything
 * inference reads — graph, islandization, degree scaling, the
 * whole-graph A_hat — lives in one immutable GraphState. States are
 * published through the GraphStateHub: a reader acquires a
 * shared_ptr snapshot for the duration of a batch and can never
 * observe a half-applied update; the writer builds the next epoch
 * privately and publishes it atomically. Retired epochs are
 * reclaimed when their last in-flight reader drops its snapshot
 * (shared_ptr refcount as epoch-based quiescence) — no locks are
 * held across kernel execution.
 */

#pragma once

#include <memory>
#include <span>

#include "core/locator.hpp"
#include "gcn/layer.hpp"
#include "gcn/reference.hpp"
#include "runtime/thread_annotations.hpp"
#include "serve/request.hpp"
#include "spmm/dense.hpp"

namespace igcn::serve {

/** One epoch of the evolving graph. Immutable after publication. */
struct GraphState
{
    uint64_t epoch = 0;
    CsrGraph graph;
    IslandizationResult islands;
    /** degreeScaling(graph); gathered per subgraph by the engine. */
    std::vector<float> scale;
    /** Whole-graph A_hat for the large-batch fallback path. */
    CsrMatrix normAdj;
};

/** Islandize g and precompute the epoch's derived state. */
std::shared_ptr<const GraphState>
makeGraphState(CsrGraph g, const LocatorConfig &cfg, uint64_t epoch = 0);

/** Epoch publication point (see file comment). */
class GraphStateHub
{
  public:
    explicit GraphStateHub(std::shared_ptr<const GraphState> initial);

    /** Snapshot of the current epoch; hold for the whole batch. */
    std::shared_ptr<const GraphState> acquire() const;

    /** Swap in the next epoch (must advance GraphState::epoch). */
    void publish(std::shared_ptr<const GraphState> next);

    uint64_t currentEpoch() const;

  private:
    mutable Mutex mutex;
    std::shared_ptr<const GraphState> current IGCN_GUARDED_BY(mutex);
};

/** Execution record of one inference micro-batch. */
struct BatchExecInfo
{
    uint64_t epoch = 0;
    uint32_t targets = 0;
    uint32_t uniqueTargets = 0;
    /** Receptive-field size (0 on the whole-graph path). */
    uint32_t subNodes = 0;
    uint64_t subEdges = 0;
    /** True when the batch fell back to a whole-graph pass. */
    bool wholeGraph = false;
};

/**
 * Micro-batched L-hop inference over the current epoch.
 *
 * A batch's receptive field is extracted with L = numLayers() hops,
 * seeded island-by-island (targets ordered by the epoch's islandOf,
 * clustering co-batched targets so overlapping neighborhoods are
 * discovered together), and run through subgraphForward with the
 * full-graph degree scaling — bit-identical to whole-graph reference
 * inference per target at any thread count. When the receptive field
 * exceeds wholeGraphFraction of the graph the engine runs the
 * whole-graph pass on the epoch's cached A_hat instead: the forward
 * would touch nearly every node either way, and the cached A_hat
 * skips the sub-CSR rebuild and row gathers.
 *
 * Features may be dense or CSR (Features::sparse). On the sparse
 * side the engine never densifies X: the subgraph path gathers the
 * receptive field's rows with csrGather and feeds the sparse
 * subgraphForward overload, and the whole-graph path runs
 * sparseTimesDense for layer 0 — both bit-identical to the dense
 * engine on a densified copy of the same features, at any
 * IGCN_THREADS (see sparseTimesDense).
 *
 * runBatch is const and thread-safe: concurrent batches and a
 * concurrent update writer interact only through the hub.
 */
class InferenceEngine
{
  public:
    InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                    Features features,
                    std::vector<DenseMatrix> weights,
                    double whole_graph_fraction = 0.5);

    /** Dense-feature convenience ctor (the pre-sparse API). */
    InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                    DenseMatrix features,
                    std::vector<DenseMatrix> weights,
                    double whole_graph_fraction = 0.5);

    int numLayers() const { return static_cast<int>(weights.size()); }
    size_t numClasses() const { return weights.back().cols(); }

    /** Serve one inference micro-batch against the current epoch. */
    std::vector<InferenceResult>
    runBatch(std::span<const Request> batch,
             BatchExecInfo *info = nullptr) const;

  private:
    std::shared_ptr<GraphStateHub> hub;
    Features features;
    std::vector<DenseMatrix> weights;
    double wholeGraphFraction;
};

} // namespace igcn::serve
