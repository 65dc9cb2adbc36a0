#include "core/consumer.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace igcn {

namespace {

/**
 * Evaluate one island task: combination results of the local columns
 * are rows of y; produce aggregation updates into z (island-node
 * rows) and hub_partial (hub rows, indexed by hub_index).
 *
 * Island-node rows belong to exactly one island, so they are written
 * straight into z without synchronization. Hub rows are the only
 * cross-island accumulations (the DHUB-PRC in hardware); each worker
 * collects them in its own hub_partial buffer and the caller merges
 * the buffers afterwards in worker-index order, which keeps the
 * reduction order deterministic for a given thread count.
 */
void
evaluateIsland(const CsrGraph &g, const Island &island,
               const DenseMatrix &y, DenseMatrix &z,
               DenseMatrix &hub_partial,
               const std::vector<uint32_t> &hub_index,
               const RedundancyConfig &cfg, AggOpStats *stats,
               bool include_self_loops)
{
    IslandBitmap bm = buildIslandBitmap(g, island,
                                        include_self_loops);
    AggOpStats plan = countIslandAggOps(bm, cfg);
    if (stats)
        *stats += plan;
    const int k = plan.chosenK;
    const size_t channels = y.cols();
    const int width = bm.width();

    // Global node id per local column: island nodes first, hubs last
    // (must mirror buildIslandBitmap's ordering).
    std::vector<NodeId> col_node(width);
    for (int i = 0; i < bm.numNodes; ++i)
        col_node[i] = island.nodes[i];
    for (int h = 0; h < bm.numHubs; ++h)
        col_node[bm.numNodes + h] = island.hubs[h];

    // Pre-aggregation: group sums of combination results, computed at
    // the tail of the combination phase (k == 0 disables removal).
    const int num_groups = k >= 2 ? (width + k - 1) / k : 0;
    DenseMatrix presum(num_groups ? num_groups : 1, channels);
    for (int grp = 0; grp < num_groups; ++grp) {
        const int c0 = grp * k;
        const int c1 = std::min(width, c0 + k);
        float *dst = presum.row(grp);
        for (int c = c0; c < c1; ++c) {
            const float *src = y.row(col_node[c]);
            for (size_t ch = 0; ch < channels; ++ch)
                dst[ch] += src[ch];
        }
    }

    // Scan every row; island-node rows produce complete outputs
    // written directly, hub rows produce partial sums accumulated
    // into this worker's hub buffer.
    for (int r = 0; r < bm.height(); ++r) {
        float *out;
        if (r < bm.numNodes) {
            out = z.row(col_node[r]);
        } else {
            const uint32_t hi = hub_index[col_node[r]];
            // A hubs-list entry whose role is not Hub would index the
            // kNotHub sentinel: fail loudly instead of corrupting.
            if (hi == ~uint32_t{0})
                throw std::logic_error(
                    "island hubs list names a non-hub node");
            out = hub_partial.row(hi);
        }
        if (k < 2) {
            for (int c = 0; c < width; ++c) {
                if (!bm.test(r, c)) continue;
                const float *src = y.row(col_node[c]);
                for (size_t ch = 0; ch < channels; ++ch)
                    out[ch] += src[ch];
            }
            continue;
        }
        for (int grp = 0; grp < num_groups; ++grp) {
            const int c0 = grp * k;
            const int c1 = std::min(width, c0 + k);
            const int k_eff = c1 - c0;
            const int zbits = bm.countBitsInWindow(r, c0, c1);
            if (zbits == 0)
                continue;
            const bool subtract =
                k_eff >= 2 && (1 + (k_eff - zbits)) < zbits;
            if (subtract) {
                const float *pre = presum.row(grp);
                for (size_t ch = 0; ch < channels; ++ch)
                    out[ch] += pre[ch];
                for (int c = c0; c < c1; ++c) {
                    if (bm.test(r, c)) continue;
                    const float *src = y.row(col_node[c]);
                    for (size_t ch = 0; ch < channels; ++ch)
                        out[ch] -= src[ch];
                }
            } else {
                for (int c = c0; c < c1; ++c) {
                    if (!bm.test(r, c)) continue;
                    const float *src = y.row(col_node[c]);
                    for (size_t ch = 0; ch < channels; ++ch)
                        out[ch] += src[ch];
                }
            }
        }
    }
}

} // namespace

DenseMatrix
aggregateViaIslands(const CsrGraph &g, const IslandizationResult &isl,
                    const DenseMatrix &y, const RedundancyConfig &cfg,
                    AggOpStats *stats, bool include_self_loops)
{
    if (y.rows() != g.numNodes())
        throw std::invalid_argument("y row count != node count");
    DenseMatrix z(y.rows(), y.cols());
    const size_t channels = y.cols();

    // Compact hub indexing: hub h occupies row hub_index[h] of every
    // per-worker partial buffer.
    constexpr uint32_t kNotHub = ~uint32_t{0};
    std::vector<uint32_t> hub_index(g.numNodes(), kNotHub);
    std::vector<NodeId> hub_ids;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        if (isl.role[v] == NodeRole::Hub) {
            hub_index[v] = static_cast<uint32_t>(hub_ids.size());
            hub_ids.push_back(v);
        }
    }

    ThreadPool &pool = globalPool();
    const size_t num_hubs = hub_ids.size();
    KernelRegion region("island_aggregate");

    // Islands are embarrassingly parallel apart from hub rows:
    // static-shard them across workers via the runtime's deterministic
    // reduction helper, with one hub partial-sum buffer (plus op
    // stats) per worker merged in worker-index order below.
    struct IslandAcc
    {
        DenseMatrix hubPartial;
        AggOpStats stats;
    };
    std::vector<IslandAcc> accs = parallelAccumulate(
        pool, 0, isl.islands.size(),
        IslandAcc{DenseMatrix(num_hubs ? num_hubs : 1, channels), {}},
        [&](IslandAcc &acc, int, size_t lo, size_t hi) {
            AggOpStats *ws = stats ? &acc.stats : nullptr;
            for (size_t i = lo; i < hi; ++i)
                evaluateIsland(g, isl.islands[i], y, z,
                               acc.hubPartial, hub_index, cfg, ws,
                               include_self_loops);
        });

    if (stats)
        for (const IslandAcc &acc : accs)
            *stats += acc.stats;

    // Deterministic hub reduction: each hub row sums its per-worker
    // partials in worker-index order. Chunks are contiguous island
    // ranges, so this replays the island order of the sequential
    // pass, merely re-associated at the worker boundaries.
    pool.parallelFor(0, num_hubs, [&](int, size_t lo, size_t hi) {
        for (size_t h = lo; h < hi; ++h) {
            float *dst = z.row(hub_ids[h]);
            for (const IslandAcc &acc : accs) {
                const float *src = acc.hubPartial.row(h);
                for (size_t ch = 0; ch < channels; ++ch)
                    dst[ch] += src[ch];
            }
        }
    }, /*min_per_worker=*/16);

    // Inter-hub tasks (push-outer-product order) plus hub self loops.
    for (const auto &[h1, h2] : isl.interHubEdges) {
        const float *y1 = y.row(h1);
        const float *y2 = y.row(h2);
        float *z1 = z.row(h1);
        float *z2 = z.row(h2);
        for (size_t ch = 0; ch < channels; ++ch) {
            z1[ch] += y2[ch];
            z2[ch] += y1[ch];
        }
    }
    if (include_self_loops) {
        for (NodeId v : hub_ids) {
            const float *src = y.row(v);
            float *dst = z.row(v);
            for (size_t ch = 0; ch < channels; ++ch)
                dst[ch] += src[ch];
        }
    }
    return z;
}

DenseMatrix
gcnForwardViaIslands(const CsrGraph &g, const IslandizationResult &isl,
                     const Features &x,
                     const std::vector<DenseMatrix> &weights,
                     const RedundancyConfig &cfg, AggOpStats *stats)
{
    if (weights.empty())
        throw std::invalid_argument("no layers");
    std::vector<float> s = degreeScaling(g);
    DenseMatrix current;
    for (size_t l = 0; l < weights.size(); ++l) {
        DenseMatrix xw = (l == 0) ? combineFeatures(x, weights[l])
                                  : gemm(current, weights[l]);
        scaleRows(xw, s);
        current = aggregateViaIslands(g, isl, xw, cfg, stats);
        scaleRows(current, s);
        if (l + 1 < weights.size())
            reluInPlace(current);
    }
    return current;
}

} // namespace igcn
