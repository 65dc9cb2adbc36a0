#include "shadow.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "core/incremental.hpp"
#include "gcn/layer.hpp"
#include "gcn/reference.hpp"
#include "spmm/spmm.hpp"

namespace perfbench {

using igcn::CsrGraph;
using igcn::DenseMatrix;
using igcn::Edge;
using igcn::NodeId;
using igcn::serve::GraphState;
using igcn::serve::InferenceResult;
using igcn::serve::Request;
using igcn::serve::RequestKind;
using igcn::serve::UpdateResult;

std::vector<Dispatch>
reconstructDispatches(std::span<const Request> queue,
                      const igcn::serve::ReplayReport &report)
{
    std::unordered_map<uint64_t, size_t> pos;
    pos.reserve(queue.size());
    for (size_t i = 0; i < queue.size(); ++i)
        pos.emplace(queue[i].id, i);
    const auto find = [&](uint64_t id) -> const Request & {
        const auto it = pos.find(id);
        if (it == pos.end())
            throw std::runtime_error("report names request " +
                                     std::to_string(id) +
                                     " not in the queue");
        return queue[it->second];
    };

    std::vector<Dispatch> inf;
    const auto &res = report.inference;
    for (size_t i = 0; i < res.size();) {
        const size_t n = res[i].batchSize;
        if (n == 0 || i + n > res.size())
            throw std::runtime_error("inference batch overruns report");
        Dispatch d;
        d.startUs = res[i].startUs;
        for (size_t k = i; k < i + n; ++k) {
            if (res[k].startUs != d.startUs || res[k].batchSize != n ||
                res[k].epoch != res[i].epoch)
                throw std::runtime_error("inconsistent inference batch");
            const Request &r = find(res[k].id);
            if (r.kind != RequestKind::Inference || r.node != res[k].node)
                throw std::runtime_error("batch result kind/node mismatch");
            d.requests.push_back(r);
            d.results.push_back(&res[k]);
        }
        inf.push_back(std::move(d));
        i += n;
    }

    std::vector<Dispatch> upd;
    for (const UpdateResult &u : report.updates) {
        const auto it = pos.find(u.id);
        if (it == pos.end() || u.coalesced == 0 ||
            it->second + u.coalesced > queue.size())
            throw std::runtime_error("update application overruns queue");
        Dispatch d;
        d.update = true;
        d.startUs = u.startUs;
        d.applied = &u;
        for (size_t k = it->second; k < it->second + u.coalesced; ++k) {
            if (queue[k].kind != RequestKind::Update)
                throw std::runtime_error(
                    "coalesced span crosses an inference request");
            d.requests.push_back(queue[k]);
        }
        upd.push_back(std::move(d));
    }

    // Merge by start time. A tie only matters when the update
    // published an epoch: batches served at an older epoch ran first.
    std::vector<Dispatch> out;
    out.reserve(inf.size() + upd.size());
    size_t a = 0, b = 0;
    while (a < inf.size() || b < upd.size()) {
        bool take_inf = b == upd.size();
        if (a < inf.size() && b < upd.size()) {
            const Dispatch &x = inf[a], &y = upd[b];
            take_inf = x.startUs < y.startUs ||
                       (x.startUs == y.startUs &&
                        x.results.front()->epoch < y.applied->epoch);
        }
        out.push_back(std::move(take_inf ? inf[a++] : upd[b++]));
    }
    return out;
}

namespace {

/**
 * The dirty-endpoint sweep belongs to the island-aggregation cache,
 * which may be removed; resolve it by argument-dependent lookup so the
 * benchmark builds with or without it.
 */
template <typename G, typename I>
bool
dirtySweepIfPresent(const G &g, const I &isl, std::span<const Edge> added,
                    std::span<const Edge> removed)
{
    if constexpr (requires {
                      dirtyIslandEndpointSweep(g, isl, added, removed);
                  }) {
        (void)dirtyIslandEndpointSweep(g, isl, added, removed);
        return true;
    } else {
        return false;
    }
}

bool
sameRow(const std::vector<float> &a, const float *b, size_t n)
{
    return a.size() == n &&
           std::memcmp(a.data(), b, n * sizeof(float)) == 0;
}

} // namespace

Shadow::Shadow(CsrGraph g, igcn::Features x,
               std::vector<DenseMatrix> weights,
               igcn::LocatorConfig locator, double whole_graph_fraction,
               Spans *spans, ShadowConfig cfg)
    : x(x), weights(weights), locator(locator),
      wholeGraphFraction(whole_graph_fraction), spans(spans), cfg(cfg),
      hub(std::make_shared<igcn::serve::GraphStateHub>(
          igcn::serve::makeGraphState(std::move(g), locator))),
      engine(hub, std::move(x), std::move(weights),
             whole_graph_fraction),
      applier(hub, locator)
{}

bool
Shadow::sampled(uint64_t id) const
{
    return mix64(id ^ cfg.sampleSalt) % cfg.sampleEvery == 0;
}

void
Shadow::run(const std::vector<Dispatch> &dispatches, Checks &checks)
{
    // Pass 2 re-drives a slice of dispatches back to back, as the run
    // did; pass 3 then replays the stages on the epoch each one saw, so
    // neither pass warms the caches for the other. Pass 3 holds every
    // state its slice saw (a graph copy per epoch), hence the slices.
    constexpr size_t kSlice = 16;
    for (size_t lo = 0; lo < dispatches.size(); lo += kSlice) {
        const size_t hi = std::min(dispatches.size(), lo + kSlice);
        std::vector<std::shared_ptr<const GraphState>> seen;
        for (size_t i = lo; i < hi; ++i) {
            if (cfg.stageReplay)
                seen.push_back(hub->acquire());
            if (dispatches[i].update)
                update(dispatches[i], checks);
            else
                inference(dispatches[i], checks);
        }
        for (size_t i = 0; i < seen.size(); ++i) {
            const Dispatch &d = dispatches[lo + i];
            const uint64_t id = d.requests.front().id;
            if (d.update) {
                stageUpdate(*seen[i], d.requests, *d.applied, checks, id);
                continue;
            }
            const std::vector<std::vector<float>> staged =
                stageInference(*seen[i], d.requests, id);
            for (size_t k = 0; k < staged.size(); ++k)
                checks.expect(sameRow(d.results[k]->logits, staged[k].data(),
                                      staged[k].size()),
                              "stage replay logits differ from run",
                              d.results[k]->id);
        }
    }
}

void
Shadow::inference(const Dispatch &d, Checks &checks)
{
    const uint64_t batch_id = d.requests.front().id;
    tot.inferenceRequests += d.requests.size();
    const std::shared_ptr<const GraphState> st = hub->acquire();
    igcn::serve::BatchExecInfo info;
    std::vector<InferenceResult> got;
    {
        Spans::Scope s(spans, "engine.run_batch", batch_id, kLaneShadow);
        got = engine.runBatch(d.requests, &info);
        const double secs = s.elapsed();
        tot.runBatchMs.push_back(secs * 1e3);
        tot.busyS += secs;
    }
    tot.batches++;
    if (info.wholeGraph) {
        tot.wholeGraphBatches++;
    } else {
        tot.subgraphBatches++;
        tot.fieldNodes += info.subNodes;
        tot.fieldEdges += static_cast<double>(info.subEdges);
    }

    bool ok = got.size() == d.results.size();
    for (size_t i = 0; ok && i < got.size(); ++i) {
        const InferenceResult &want = *d.results[i];
        ok = got[i].id == want.id && got[i].epoch == want.epoch &&
             sameRow(want.logits, got[i].logits.data(),
                     got[i].logits.size());
    }
    for (const Request &r : d.requests)
        checks.expect(ok, "shadow logits or epoch differ from run", r.id);
    for (const InferenceResult *r : d.results)
        if (sampled(r->id))
            referenceCheck(st, *r, checks);
}

void
Shadow::computeReference(const GraphState &st)
{
    const double t0 = nowS();
    ref = igcn::referenceForward(st.graph, x, weights);
    tot.refS += nowS() - t0;
    refEpoch = st.epoch;
    refValid = true;
    tot.refEpochs++;
}

void
Shadow::referenceCheck(const std::shared_ptr<const GraphState> &st,
                       const InferenceResult &r, Checks &checks)
{
    if (!refValid || refEpoch != st->epoch) {
        if (tot.refEpochs > 0 && tot.refS > cfg.refShare * tot.busyS) {
            tot.refRowsSkipped++;
            skippedState = st;
            skippedRow = r;
            return;
        }
        computeReference(*st);
    }
    skippedState.reset();
    tot.refRowsChecked++;
    checks.expect(sameRow(r.logits, ref.row(r.node), ref.cols()),
                  "served row differs from referenceForward", r.id);
}

void
Shadow::finish(Checks &checks)
{
    if (!skippedState)
        return;
    computeReference(*skippedState);
    tot.refRowsSkipped--;
    tot.refRowsChecked++;
    checks.expect(sameRow(skippedRow.logits, ref.row(skippedRow.node),
                          ref.cols()),
                  "served row differs from referenceForward", skippedRow.id);
    skippedState.reset();
}

void
Shadow::update(const Dispatch &d, Checks &checks)
{
    const uint64_t batch_id = d.requests.front().id;
    const UpdateResult &want = *d.applied;
    UpdateResult got;
    {
        Spans::Scope s(spans, "update.apply", batch_id, kLaneShadow);
        got = applier.apply(d.requests);
        const double secs = s.elapsed();
        tot.applyMs.push_back(secs * 1e3);
        tot.busyS += secs;
    }
    tot.applications++;
    tot.coalescedRequests += got.coalesced;
    if (got.edgesApplied + got.edgesRemoved == 0)
        tot.noopApplications++;
    tot.edgesScanned += got.stats.edgesScanned;
    tot.nodesReclassified += got.stats.nodesReclassified;
    const bool ok = got.epoch == want.epoch &&
                    got.coalesced == want.coalesced &&
                    got.edgesApplied == want.edgesApplied &&
                    got.edgesRemoved == want.edgesRemoved &&
                    got.edgesSkippedInvalid == want.edgesSkippedInvalid &&
                    got.edgesSkippedNoop == want.edgesSkippedNoop &&
                    got.stats == want.stats;
    for (const Request &r : d.requests)
        checks.expect(ok, "shadow update differs from run", r.id);
}

std::vector<std::vector<float>>
Shadow::stageInference(const GraphState &st, std::span<const Request> batch,
                       uint64_t id)
{
    Spans::Scope root(spans, "stage.batch", id, kLaneStage);
    const CsrGraph &g = st.graph;
    const NodeId n = g.numNodes();
    const int hops = static_cast<int>(weights.size());
    const size_t hidden = weights[0].cols();
    std::vector<NodeId> targets, uniq;
    {
        Spans::Scope s(spans, "engine.prep", id, kLaneStage);
        for (const Request &r : batch)
            targets.push_back(r.node);
        uniq = targets;
        std::sort(uniq.begin(), uniq.end());
        uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    }
    std::vector<NodeId> field;
    {
        Spans::Scope s(spans, "graph.lhop", id, kLaneStage);
        field = igcn::lHopNodeSet(g, uniq, hops);
    }

    // The remaining layers: ReLU, combination, aggregation.
    const auto tail = [&](const igcn::CsrMatrix &a_hat, DenseMatrix cur) {
        for (size_t l = 1; l < weights.size(); ++l) {
            {
                Spans::Scope s(spans, "gcn.relu", id, kLaneStage);
                igcn::reluInPlace(cur);
            }
            DenseMatrix xw;
            {
                Spans::Scope s(spans, "spmm.combine_l1", id, kLaneStage);
                xw = igcn::gemm(cur, weights[l]);
            }
            Spans::Scope s(spans, "spmm.aggregate", id, kLaneStage);
            cur = igcn::spmmPullRowWise(a_hat, xw);
        }
        return cur;
    };

    std::vector<std::vector<float>> out(targets.size());
    if (static_cast<double>(field.size()) >=
        wholeGraphFraction * static_cast<double>(n)) {
        Spans::Scope wg(spans, "spmm.whole_graph", id, kLaneStage);
        DenseMatrix xw0;
        {
            Spans::Scope s(spans, "spmm.combine_l0", id, kLaneStage);
            xw0 = x.sparse ? igcn::sparseTimesDense(x.csr, weights[0])
                           : igcn::gemm(x.dense, weights[0]);
        }
        tot.combineL0Macs += x.sparse
                                 ? static_cast<double>(x.nnz()) * hidden
                                 : static_cast<double>(n) * x.cols() * hidden;
        DenseMatrix h;
        {
            Spans::Scope s(spans, "spmm.aggregate", id, kLaneStage);
            h = igcn::spmmPullRowWise(st.normAdj, xw0);
        }
        h = tail(st.normAdj, std::move(h));
        Spans::Scope s(spans, "engine.respond", id, kLaneStage);
        for (size_t i = 0; i < targets.size(); ++i)
            out[i].assign(h.row(targets[i]), h.row(targets[i]) + h.cols());
        return out;
    }

    igcn::LHopSubgraph ext;
    {
        Spans::Scope s(spans, "graph.induced_subgraph", id, kLaneStage);
        ext = igcn::inducedSubgraph(g, std::move(field), uniq);
    }
    std::vector<float> scale(ext.nodes.size());
    DenseMatrix x_dense;
    igcn::CsrFeatures x_csr;
    {
        Spans::Scope s(spans, "spmm.x_gather", id, kLaneStage);
        for (size_t l = 0; l < ext.nodes.size(); ++l)
            scale[l] = st.scale[ext.nodes[l]];
        if (x.sparse) {
            x_csr = igcn::csrGather(x.csr, ext.nodes);
        } else {
            x_dense = DenseMatrix(ext.nodes.size(), x.cols());
            for (size_t l = 0; l < ext.nodes.size(); ++l)
                std::copy_n(x.dense.row(ext.nodes[l]), x.cols(),
                            x_dense.row(l));
        }
    }
    igcn::CsrMatrix a_hat;
    {
        Spans::Scope s(spans, "gcn.norm_adj_scaled", id, kLaneStage);
        a_hat = igcn::normalizedAdjacencyScaled(ext.sub, scale);
    }
    DenseMatrix xw0;
    {
        Spans::Scope s(spans, "spmm.combine_l0", id, kLaneStage);
        xw0 = x.sparse ? igcn::sparseTimesDense(x_csr, weights[0])
                       : igcn::gemm(x_dense, weights[0]);
    }
    tot.combineL0Macs +=
        x.sparse ? static_cast<double>(x_csr.colIdx.size()) * hidden
                 : static_cast<double>(ext.nodes.size()) * x.cols() * hidden;
    DenseMatrix h;
    {
        Spans::Scope s(spans, "spmm.aggregate", id, kLaneStage);
        h = igcn::spmmPullRowWise(a_hat, xw0);
    }
    h = tail(a_hat, std::move(h));
    Spans::Scope s(spans, "engine.respond", id, kLaneStage);
    for (size_t i = 0; i < targets.size(); ++i) {
        const auto local = static_cast<size_t>(
            std::lower_bound(ext.nodes.begin(), ext.nodes.end(),
                             targets[i]) -
            ext.nodes.begin());
        out[i].assign(h.row(local), h.row(local) + h.cols());
    }
    return out;
}

void
Shadow::stageUpdate(const GraphState &cur, std::span<const Request> batch,
                    const UpdateResult &expected, Checks &checks,
                    uint64_t id)
{
    Spans::Scope root(spans, "stage.update", id, kLaneStage);
    const NodeId n = cur.graph.numNodes();
    std::vector<Edge> fresh, stale;
    {
        // The applier's documented folding rule: last write wins per
        // undirected edge, additions before removals within a request,
        // then screened against the current epoch.
        Spans::Scope s(spans, "update.coalesce", id, kLaneStage);
        std::map<Edge, bool> want;
        const auto put = [&](const Edge &e, bool present) {
            const auto [u, v] = e;
            if (u < n && v < n && u != v)
                want[{std::min(u, v), std::max(u, v)}] = present;
        };
        for (const Request &r : batch) {
            for (const Edge &e : r.addedEdges)
                put(e, true);
            for (const Edge &e : r.removedEdges)
                put(e, false);
        }
        for (const auto &[e, present] : want) {
            const bool has = cur.graph.hasEdge(e.first, e.second);
            if (present && !has)
                fresh.push_back(e);
            else if (!present && has)
                stale.push_back(e);
        }
    }
    checks.expect(fresh.size() == expected.edgesApplied &&
                      stale.size() == expected.edgesRemoved,
                  "stage update net effect differs from run", id);
    if (fresh.empty() && stale.empty())
        return;
    CsrGraph g2;
    {
        Spans::Scope s(spans, "graph.edit_edges", id, kLaneStage);
        g2 = cur.graph.withEditedEdges(fresh, stale);
    }
    igcn::IncrementalStats stats;
    igcn::IslandizationResult isl;
    {
        Spans::Scope s(spans, "incremental.repair", id, kLaneStage);
        isl = igcn::updateIslandization(g2, cur.islands, fresh, stale,
                                        locator, &stats);
    }
    checks.expect(stats == expected.stats,
                  "stage incremental islandize differs from run", id);
    {
        Spans::Scope s(spans, "incremental.dirty_sweep", id, kLaneStage);
        tot.dirtySweepPresent = dirtySweepIfPresent(g2, isl, fresh, stale);
    }
    std::vector<float> scale;
    {
        Spans::Scope s(spans, "gcn.degree_scaling", id, kLaneStage);
        scale = igcn::degreeScaling(g2);
    }
    igcn::CsrMatrix a_hat;
    {
        Spans::Scope s(spans, "gcn.norm_adj_copy", id, kLaneStage);
        a_hat = cur.normAdj;
    }
    Spans::Scope s(spans, "gcn.norm_adj_refresh", id, kLaneStage);
    igcn::refreshNormalizedAdjacency(a_hat, g2, scale);
}

igcn::IslandizationResult
stageSetup(const CsrGraph &g, const igcn::LocatorConfig &locator,
           Spans *spans)
{
    igcn::IslandizationResult isl;
    Spans::Scope root(spans, "stage.setup", 0, kLaneSetup);
    {
        Spans::Scope s(spans, "locator.islandize", 0, kLaneSetup);
        isl = igcn::islandize(g, locator);
    }
    std::vector<float> scale;
    {
        Spans::Scope s(spans, "setup.degree_scaling", 0, kLaneSetup);
        scale = igcn::degreeScaling(g);
    }
    igcn::CsrMatrix a_hat;
    Spans::Scope s(spans, "setup.norm_adj_refresh", 0, kLaneSetup);
    igcn::refreshNormalizedAdjacency(a_hat, g, scale);
    return isl;
}

} // namespace perfbench
