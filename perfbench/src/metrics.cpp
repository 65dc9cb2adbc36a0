#include "metrics.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"nell-churn",
                                                   "reddit-train"};
    return names;
}

namespace {

/** A runtime kernel label and where its time shows end to end. */
struct KernelUse
{
    const char *kernel;
    const char *moves;
    const char *on;
    const char *bypassed;
};

// hub_detect and tpbfs_explore are profiled during reddit-train's
// set-up stage replay only.
constexpr KernelUse kKernels[] = {
    {"gemm", "unit_ms", "nell-churn,reddit-train", ""},
    {"gemm_at_b", "unit_ms", "reddit-train", "nell-churn"},
    {"gemm_a_bt", "unit_ms", "reddit-train", "nell-churn"},
    {"spmm_pull_row_wise", "unit_ms", "nell-churn", "reddit-train"},
    {"island_aggregate", "unit_ms", "reddit-train", "nell-churn"},
    {"relu", "unit_ms", "nell-churn,reddit-train", ""},
    {"scale_rows", "unit_ms", "reddit-train", "nell-churn"},
    {"csr_gather", "unit_ms", "nell-churn", "reddit-train"},
    {"hub_detect", "setup_s", "reddit-train", "nell-churn"},
    {"tpbfs_explore", "setup_s", "reddit-train", "nell-churn"},
};

} // namespace

const std::vector<std::string> &
runtimeKernels()
{
    static const std::vector<std::string> kernels = [] {
        std::vector<std::string> k;
        for (const KernelUse &u : kKernels)
            k.push_back(u.kernel);
        return k;
    }();
    return kernels;
}

namespace {

MetricDef
e2e(const char *name, const char *unit, const char *better, double bound)
{
    MetricDef m;
    m.name = name;
    m.unit = unit;
    m.better = better;
    m.endToEnd = true;
    m.bound = bound;
    return m;
}

MetricDef
layer(const std::string &name, const char *unit, const char *better,
      const char *moves, const char *on, const char *bypassed)
{
    MetricDef m;
    m.name = name;
    m.unit = unit;
    m.better = better;
    m.moves = moves;
    m.on = on;
    m.bypassed = bypassed;
    return m;
}

std::vector<MetricDef>
buildCatalog()
{
    // unit_ms is the median wall time of each workload's unit of work:
    // a replayed request (1000 / replay_rps, per window) or a training
    // epoch.
    std::vector<MetricDef> c = {
        e2e("setup_s", "s", "lower", 0.25),
        e2e("unit_ms", "ms", "lower", 0.25),
        e2e("success_frac", "frac", "higher", 0.05),
        e2e("peak_rss_mb", "MiB", "lower", 0.1),
    };
    const char *serve = "nell-churn";
    const char *train = "reddit-train";
    const auto add = [&c](MetricDef m) { c.push_back(std::move(m)); };
    const auto serving = [&](const std::string &n, const char *unit,
                             const char *better) {
        add(layer(n, unit, better, "unit_ms", serve, train));
    };

    // serve: server and scheduler
    serving("serve.mean_batch", "req", "higher");
    // The whole-graph branch is taken when a batch's receptive field
    // passes the configured share of the graph; on Nell none does.
    serving("serve.whole_graph_frac", "frac", "lower");
    serving("serve.sched_self_frac", "frac", "lower");
    // The live session of the nell-churn traced run; its latency is too
    // noisy on a shared host to carry an end-to-end bound.
    for (const char *n : {"live.queue_wait_ms.p50", "live.queue_wait_ms.p99",
                          "live.service_ms.p50", "live.service_ms.p99",
                          "live.gen_late_ms.max"})
        add(layer(n, "ms", "lower", "none (diagnostic)", serve, train));

    // serve: engine
    for (const char *n : {"engine.run_batch_ms.p50", "engine.run_batch_ms.p99"})
        serving(n, "ms", "lower");
    serving("engine.run_batch_s", "s/kreq", "lower");
    serving("engine.field_nodes.mean", "nodes", "lower");
    serving("engine.field_edges.mean", "edges", "lower");

    // serve: update applier
    for (const char *n : {"update.apply_ms.p50", "update.apply_ms.p99"})
        serving(n, "ms", "lower");
    serving("update.apply_s", "s/kreq", "lower");
    serving("update.applications", "1/kreq", "lower");
    serving("update.coalesced.mean", "req", "higher");
    serving("update.noop_frac", "frac", "lower");

    // graph
    serving("graph.lhop_s", "s/kreq", "lower");
    serving("graph.induced_subgraph_s", "s/kreq", "lower");
    serving("graph.edit_edges_s", "s/kreq", "lower");

    // gcn layer
    serving("gcn.norm_adj_scaled_s", "s/kreq", "lower");
    serving("gcn.norm_adj_refresh_s", "s/kreq", "lower");
    serving("gcn.degree_scaling_s", "s/kreq", "lower");
    serving("gcn.relu_s", "s/kreq", "lower");

    // spmm
    serving("spmm.x_gather_s", "s/kreq", "lower");
    serving("spmm.combine_l0_s", "s/kreq", "lower");
    serving("spmm.combine_l0_gmacs", "GMAC/s", "higher");
    serving("spmm.aggregate_s", "s/kreq", "lower");
    serving("spmm.combine_l1_s", "s/kreq", "lower");
    serving("spmm.whole_graph_s", "s/kreq", "lower");

    // core: locator (set-up stage replay of both workloads)
    const char *both = "nell-churn,reddit-train";
    add(layer("locator.islandize_s", "s", "lower", "setup_s", both, ""));
    add(layer("locator.hubs", "count", "lower", "setup_s", both, ""));
    add(layer("locator.islands", "count", "higher", "setup_s", both, ""));
    add(layer("locator.rounds", "count", "lower", "setup_s", both, ""));
    add(layer("locator.wasted_scan_frac", "frac", "lower", "setup_s", both,
              ""));

    // core: incremental islandization
    serving("incremental.repair_s", "s/kreq", "lower");
    serving("incremental.dirty_sweep_s", "s/kreq", "lower");
    serving("incremental.edges_scanned", "1/kreq", "lower");
    serving("incremental.nodes_reclassified", "1/kreq", "lower");

    // core consumer + gcn training
    for (const char *n :
         {"training.forward_s", "training.backward_s", "training.sgd_s"})
        add(layer(n, "s", "lower", "unit_ms", train, serve));
    add(layer("consumer.agg_ops_pruned_frac", "frac", "higher", "unit_ms",
              train, serve));

    // runtime kernels (traced run only)
    for (const KernelUse &u : kKernels) {
        const std::string p = std::string("runtime.") + u.kernel;
        add(layer(p + ".wall_frac", "frac", "lower", u.moves, u.on,
                  u.bypassed));
        add(layer(p + ".regions_per_s", "1/s", "lower", u.moves, u.on,
                  u.bypassed));
        add(layer(p + ".par", "x", "higher", u.moves, u.on, u.bypassed));
    }

    // obs
    add(layer("obs.trace_overhead_frac", "frac", "lower", "none (diagnostic)",
              both, ""));
    add(layer("obs.stage_coverage_frac", "frac", "higher",
              "none (diagnostic)", serve, train));
    return c;
}

} // namespace

const std::vector<MetricDef> &
catalog()
{
    static const std::vector<MetricDef> c = buildCatalog();
    return c;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !std::isalnum(
                                                static_cast<unsigned char>(
                                                    name[0])))
        return false;
    for (char ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_' &&
            ch != '.' && ch != '-')
            return false;
    return true;
}

std::string
catalogJson()
{
    const auto q = [](const std::string &s) { return "\"" + s + "\""; };
    std::string out = "{\"workloads\": [";
    for (size_t i = 0; i < workloadNames().size(); ++i)
        out += (i ? ", " : "") + q(workloadNames()[i]);
    for (const bool per_layer : {false, true}) {
        out += per_layer ? "], \"per_layer\": [" : "], \"end_to_end\": [";
        bool first = true;
        for (const MetricDef &m : catalog()) {
            if (m.endToEnd == per_layer)
                continue;
            out += first ? "" : ", ";
            first = false;
            out += "{\"name\": " + q(m.name) + ", \"unit\": " + q(m.unit) +
                   ", \"better\": " + q(m.better);
            if (m.endToEnd) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%g", m.bound);
                out += std::string(", \"bound\": ") + buf;
            } else {
                out += ", \"moves\": " + q(m.moves) + ", \"on\": " + q(m.on) +
                       ", \"bypassed\": " + q(m.bypassed);
            }
            out += "}";
        }
    }
    return out + "]}";
}

std::string
resultLine(bool correct, uint64_t attempted, uint64_t failed,
           bool per_layer, const std::map<std::string, double> &values)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &m : catalog()) {
        if (m.endToEnd == per_layer)
            continue;
        const auto it = values.find(m.name);
        if (it == values.end())
            throw std::logic_error("metric not measured: " + m.name);
        const double v = it->second;
        if (!std::isfinite(v))
            throw std::logic_error("metric not finite: " + m.name);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
