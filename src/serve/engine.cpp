#include "serve/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "spmm/spmm.hpp"

namespace igcn::serve {

std::shared_ptr<const GraphState>
makeGraphState(CsrGraph g, const LocatorConfig &cfg, uint64_t epoch)
{
    auto state = std::make_shared<GraphState>();
    state->epoch = epoch;
    state->islands = islandize(g, cfg);
    state->scale = degreeScaling(g);
    state->graph = std::move(g);
    refreshNormalizedAdjacency(state->normAdj, state->graph,
                               state->scale);
    return state;
}

GraphStateHub::GraphStateHub(std::shared_ptr<const GraphState> initial)
    : current(std::move(initial))
{
    if (!current)
        throw std::invalid_argument("GraphStateHub: null initial state");
}

std::shared_ptr<const GraphState>
GraphStateHub::acquire() const
{
    MutexLock lock(mutex);
    return current;
}

void
GraphStateHub::publish(std::shared_ptr<const GraphState> next)
{
    if (!next)
        throw std::invalid_argument("GraphStateHub: null state");
    MutexLock lock(mutex);
    if (next->epoch <= current->epoch)
        throw std::invalid_argument(
            "GraphStateHub: epoch must advance");
    current = std::move(next);
}

uint64_t
GraphStateHub::currentEpoch() const
{
    MutexLock lock(mutex);
    return current->epoch;
}

InferenceEngine::InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                                 Features features,
                                 std::vector<DenseMatrix> weights,
                                 double whole_graph_fraction)
    : hub(std::move(hub)), features(std::move(features)),
      weights(std::move(weights)),
      wholeGraphFraction(whole_graph_fraction)
{
    if (!this->hub)
        throw std::invalid_argument("InferenceEngine: null hub");
    if (this->weights.empty())
        throw std::invalid_argument("InferenceEngine: no layers");
    const auto state = this->hub->acquire();
    if (this->features.rows() != state->graph.numNodes())
        throw std::invalid_argument(
            "InferenceEngine: features rows != graph nodes");
}

InferenceEngine::InferenceEngine(std::shared_ptr<GraphStateHub> hub,
                                 DenseMatrix features,
                                 std::vector<DenseMatrix> weights,
                                 double whole_graph_fraction)
    : InferenceEngine(std::move(hub),
                      Features{false, std::move(features), {}},
                      std::move(weights), whole_graph_fraction)
{
}

std::vector<InferenceResult>
InferenceEngine::runBatch(std::span<const Request> batch,
                          BatchExecInfo *info) const
{
    const std::shared_ptr<const GraphState> state = hub->acquire();
    const CsrGraph &g = state->graph;
    const NodeId n = g.numNodes();

    std::vector<NodeId> targets;
    targets.reserve(batch.size());
    for (const Request &r : batch) {
        if (r.kind != RequestKind::Inference)
            throw std::invalid_argument(
                "runBatch: non-inference request in batch");
        if (r.node >= n)
            throw std::out_of_range(
                "runBatch: target node exceeds num_nodes");
        targets.push_back(r.node);
    }

    // Island-aware clustering: deduplicate, then seed extraction
    // island-by-island so co-batched targets from one community are
    // expanded together and their shared neighborhoods are discovered
    // once, while they are still close in the traversal.
    std::vector<NodeId> uniq = targets;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    const auto &island_of = state->islands.islandOf;
    std::stable_sort(uniq.begin(), uniq.end(),
                     [&island_of](NodeId a, NodeId b) {
                         return island_of[a] < island_of[b];
                     });

    BatchExecInfo local_info;
    local_info.epoch = state->epoch;
    local_info.targets = static_cast<uint32_t>(targets.size());
    local_info.uniqueTargets = static_cast<uint32_t>(uniq.size());

    const int hops = numLayers();
    // h holds the last layer's output; row_of[i] is the row of h
    // that answers request i.
    DenseMatrix h;
    std::vector<NodeId> row_of = std::move(targets);
    // The node set alone decides the path; the sub-CSR is only built
    // when the subgraph path is actually taken.
    std::vector<NodeId> field = lHopNodeSet(g, uniq, hops);
    if (static_cast<double>(field.size()) >=
        wholeGraphFraction * static_cast<double>(n)) {
        // Receptive field covers most of the graph: the cached
        // whole-graph A_hat is cheaper than building a sub-CSR of
        // nearly the same size.
        local_info.wholeGraph = true;
        h = forwardChain(state->normAdj,
                         combineFeatures(features, weights[0]), weights);
    } else {
        LHopSubgraph ext = inducedSubgraph(g, std::move(field), uniq);
        local_info.subNodes =
            static_cast<uint32_t>(ext.nodes.size());
        local_info.subEdges = ext.sub.numEdges();
        std::vector<float> scale_local(ext.nodes.size());
        for (size_t l = 0; l < ext.nodes.size(); ++l)
            scale_local[l] = state->scale[ext.nodes[l]];
        // In X's own storage: a CSR X moves O(field nnz), never the
        // dense rows * cols image.
        h = subgraphForward(ext.sub, scale_local,
                            gatherRows(features, ext.nodes), weights);
        // ext.nodes is ascending, so a target's local row is found by
        // binary search.
        for (NodeId &r : row_of)
            r = static_cast<NodeId>(
                std::lower_bound(ext.nodes.begin(), ext.nodes.end(), r) -
                ext.nodes.begin());
    }

    std::vector<InferenceResult> results;
    results.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        InferenceResult res;
        res.id = batch[i].id;
        res.node = batch[i].node;
        res.tenant = batch[i].tenant;
        res.epoch = state->epoch;
        res.arrivalUs = batch[i].arrivalUs;
        res.batchSize = static_cast<uint32_t>(batch.size());
        res.logits.assign(h.row(row_of[i]),
                          h.row(row_of[i]) + numClasses());
        results.push_back(std::move(res));
    }
    if (info)
        *info = local_info;
    return results;
}

} // namespace igcn::serve
