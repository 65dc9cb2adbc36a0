/**
 * @file
 * The repo benchmark: one named workload, seeded inputs, a measured
 * phase of fixed length, output checks, and one JSON result line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics with no instrumentation.
 * --trace 1 runs the same workload with the benchmark's own spans
 * and the runtime kernel profiler on, re-drives every replay window
 * through the shadow (shadow.hpp), and prints the per-layer metrics.
 * Exit status is 0 only when every output check passed.
 */

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "gcn/models.hpp"
#include "gcn/training.hpp"
#include "graph/datasets.hpp"
#include "metrics.hpp"
#include "obs/runtime.hpp"
#include "serve/trace.hpp"
#include "shadow.hpp"

using namespace igcn;
using perfbench::Checks;
using perfbench::Spans;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

/** Everything one run produces. */
struct Run
{
    Args args;
    Checks checks;
    uint64_t attempted = 0;
    std::map<std::string, double> values;
    /** Sample count behind each end-to-end metric. */
    std::map<std::string, size_t> samples;
    Spans spans;
    std::string digest;
    double genLateMaxMs = 0;
    Spans *sp() { return args.trace ? &spans : nullptr; }
    void note(const char *fmt, ...) __attribute__((format(printf, 2, 3)));
};

void
Run::note(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::fflush(stdout);
}

/**
 * Time set-ups of `make` (each result replaces the previous one, so at
 * most two live at once): two untimed warm-ups, then timed set-ups
 * until there are at least `min_samples` and `budget_s` seconds have
 * passed. Returns the median of the single set-up times. The warm-ups
 * take the first-touch page faults; the median over many samples rides
 * out the host's stalls, which last longer than one set-up.
 */
template <typename T, typename Make>
double
timedSetups(Run &run, size_t min_samples, double budget_s,
            std::unique_ptr<T> &keep, Make &&make)
{
    for (int i = 0; i < 2; ++i) {
        keep.reset();
        keep = make.build(make.inputs());
    }
    std::vector<double> secs;
    const double end = perfbench::nowS() + budget_s;
    while (secs.size() < min_samples || perfbench::nowS() < end) {
        keep.reset();
        auto inputs = make.inputs();
        const double t0 = perfbench::nowS();
        keep = make.build(std::move(inputs));
        secs.push_back(perfbench::nowS() - t0);
    }
    run.samples["setup_s"] = secs.size();
    run.note("setup_s: median %.6f s, quartiles %.6f / %.6f, over %zu "
             "set-ups\n",
             perfbench::median(secs), perfbench::quantile(secs, 0.25),
             perfbench::quantile(secs, 0.75), secs.size());
    return perfbench::median(secs);
}

/** Flatten the runtime registry's kernel families into
 *  runtime.<kernel>.* over `wall_s` seconds of profiled wall. */
void
runtimeMetrics(Run &run, double wall_s)
{
    const obs::Registry &reg = obs::runtimeRegistry();
    for (const std::string &k : perfbench::runtimeKernels()) {
        const obs::Labels labels{{"kernel", k}};
        const auto get = [&](const char *name) -> double {
            const obs::Counter *c = reg.findCounter(name, labels);
            return c ? static_cast<double>(c->value()) : 0.0;
        };
        const double regions = get("igcn_runtime_kernel_regions_total");
        const double wall_us = get("igcn_runtime_kernel_wall_us_total");
        const double busy_us = get("igcn_runtime_kernel_busy_us_total");
        const std::string p = "runtime." + k;
        run.values[p + ".wall_frac"] =
            wall_s > 0 ? wall_us * 1e-6 / wall_s : 0.0;
        run.values[p + ".regions_per_s"] = wall_s > 0 ? regions / wall_s : 0;
        run.values[p + ".par"] = wall_us > 0 ? busy_us / wall_us : 0.0;
    }
}

/** Locator metrics of an islandization (set-up stage replay). */
void
locatorMetrics(Run &run, const IslandizationResult &isl)
{
    run.values["locator.islandize_s"] =
        run.spans.sum("locator.islandize").total;
    run.values["locator.hubs"] = isl.numHubs();
    run.values["locator.islands"] = static_cast<double>(isl.islands.size());
    run.values["locator.rounds"] = isl.numRounds;
    run.values["locator.wasted_scan_frac"] =
        isl.stats.edgesScanned
            ? static_cast<double>(isl.stats.edgesScannedWasted) /
                  static_cast<double>(isl.stats.edgesScanned)
            : 0.0;
}

/** Per-layer metrics the shadow and the stage spans measured, per
 *  1000 requests served. */
void
shadowMetrics(Run &run, const perfbench::ShadowTotals &t, double requests)
{
    const double kreq = std::max(requests, 1.0) / 1000.0;
    const auto per_kreq = [&](const char *span) {
        return run.spans.sum(span).total / kreq;
    };
    double run_batch_s = 0, apply_s = 0;
    for (double ms : t.runBatchMs)
        run_batch_s += ms * 1e-3;
    for (double ms : t.applyMs)
        apply_s += ms * 1e-3;
    auto &v = run.values;
    v["serve.mean_batch"] =
        t.batches ? static_cast<double>(t.inferenceRequests) / t.batches : 0;
    v["serve.whole_graph_frac"] =
        t.batches ? static_cast<double>(t.wholeGraphBatches) / t.batches : 0;
    v["engine.run_batch_ms.p50"] = perfbench::quantile(t.runBatchMs, 0.5);
    v["engine.run_batch_ms.p99"] = perfbench::quantile(t.runBatchMs, 0.99);
    v["engine.run_batch_s"] = run_batch_s / kreq;
    v["engine.field_nodes.mean"] =
        t.subgraphBatches ? t.fieldNodes / t.subgraphBatches : 0;
    v["engine.field_edges.mean"] =
        t.subgraphBatches ? t.fieldEdges / t.subgraphBatches : 0;
    v["update.apply_ms.p50"] = perfbench::quantile(t.applyMs, 0.5);
    v["update.apply_ms.p99"] = perfbench::quantile(t.applyMs, 0.99);
    v["update.apply_s"] = apply_s / kreq;
    v["update.applications"] = static_cast<double>(t.applications) / kreq;
    v["update.coalesced.mean"] =
        t.applications
            ? static_cast<double>(t.coalescedRequests) / t.applications
            : 0;
    v["update.noop_frac"] =
        t.applications
            ? static_cast<double>(t.noopApplications) / t.applications
            : 0;
    v["graph.lhop_s"] = per_kreq("graph.lhop");
    v["graph.induced_subgraph_s"] = per_kreq("graph.induced_subgraph");
    v["graph.edit_edges_s"] = per_kreq("graph.edit_edges");
    v["gcn.norm_adj_scaled_s"] = per_kreq("gcn.norm_adj_scaled");
    v["gcn.norm_adj_refresh_s"] = per_kreq("gcn.norm_adj_refresh");
    v["gcn.degree_scaling_s"] = per_kreq("gcn.degree_scaling");
    v["gcn.relu_s"] = per_kreq("gcn.relu");
    v["spmm.x_gather_s"] = per_kreq("spmm.x_gather");
    v["spmm.combine_l0_s"] = per_kreq("spmm.combine_l0");
    const double l0 = run.spans.sum("spmm.combine_l0").total;
    v["spmm.combine_l0_gmacs"] = l0 > 0 ? t.combineL0Macs / l0 * 1e-9 : 0;
    v["spmm.aggregate_s"] = per_kreq("spmm.aggregate");
    v["spmm.combine_l1_s"] = per_kreq("spmm.combine_l1");
    v["spmm.whole_graph_s"] = per_kreq("spmm.whole_graph");
    v["incremental.repair_s"] = per_kreq("incremental.repair");
    v["incremental.dirty_sweep_s"] = per_kreq("incremental.dirty_sweep");
    v["incremental.edges_scanned"] =
        static_cast<double>(t.edgesScanned) / kreq;
    v["incremental.nodes_reclassified"] =
        static_cast<double>(t.nodesReclassified) / kreq;

    // Stage-replay coverage: the labelled stage spans (root self time
    // excluded) over the shadow's engine and applier time.
    double staged = 0;
    for (const char *root : {"stage.batch", "stage.update"}) {
        const Spans::Sum s = run.spans.sum(root);
        staged += s.total - s.self;
    }
    const double shadow = run_batch_s + apply_s;
    v["obs.stage_coverage_frac"] = shadow > 0 ? staged / shadow : 0;
    run.note("shadow: %llu batches (%llu whole-graph), %llu applications "
             "(%llu no-op), engine %.3f s, applier %.3f s, stage "
             "coverage %.3f, %llu reference rows over %llu epochs "
             "(%.2f s; %llu sampled rows past the reference budget), "
             "dirty sweep %s\n",
             static_cast<unsigned long long>(t.batches),
             static_cast<unsigned long long>(t.wholeGraphBatches),
             static_cast<unsigned long long>(t.applications),
             static_cast<unsigned long long>(t.noopApplications),
             run_batch_s, apply_s, v["obs.stage_coverage_frac"],
             static_cast<unsigned long long>(t.refRowsChecked),
             static_cast<unsigned long long>(t.refEpochs), t.refS,
             static_cast<unsigned long long>(t.refRowsSkipped),
             t.dirtySweepPresent ? "present" : "absent or unused");
}

void
digestLogits(perfbench::Digest &d, const std::vector<float> &logits)
{
    d.add(logits.data(), logits.size() * sizeof(float));
}

// -------------------------------------------------------------- live

/** Offered rate of the live session (requests per second). */
constexpr double kLiveRate = 100.0;
/** Live request ids restart at 0, so a live operation is recorded as
 *  this base plus its index among the offered requests. */
constexpr uint64_t kLiveIdBase = uint64_t{1} << 40;

/** What a live session leaves for the shadow. */
struct LiveRun
{
    serve::ReplayReport report;
    /** The admitted requests in queue order, with their live ids. */
    std::vector<serve::Request> queue;
    /** Live id -> index among the offered requests. */
    std::unordered_map<uint64_t, size_t> offeredIndex;
};

/**
 * A live session on `server`: this thread offers `offered` open-loop
 * at kLiveRate through start / submitInference / submitUpdate / stop.
 * Latency counts from each request's due time (generator lateness
 * plus the server's doneUs - arrivalUs). A refused or lost request
 * fails a check. Records the live.* metrics.
 */
LiveRun
liveSession(Run &run, serve::Server &server,
            std::span<const serve::Request> offered)
{
    LiveRun live;
    std::vector<serve::Request> &queue = live.queue;
    std::vector<double> late_ms(offered.size(), 0.0);
    std::vector<serve::ServeResult> sub(offered.size());
    server.start();
    const auto origin = std::chrono::steady_clock::now();
    for (size_t i = 0; i < offered.size(); ++i) {
        const auto due =
            origin + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / kLiveRate));
        std::this_thread::sleep_until(due);
        late_ms[i] = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - due)
                         .count();
        const serve::Request &r = offered[i];
        sub[i] = r.kind == serve::RequestKind::Inference
                     ? server.submitInference(r.node)
                     : server.submitUpdate(r.addedEdges, r.removedEdges);
        if (sub[i].ok()) {
            queue.push_back(r);
            queue.back().id = sub[i].id;
            live.offeredIndex.emplace(sub[i].id, i);
        }
    }
    live.report = server.stop();
    const serve::ReplayReport &rep = live.report;

    std::unordered_map<uint64_t, const serve::InferenceResult *> by_id;
    for (const serve::InferenceResult &r : rep.inference)
        by_id.emplace(r.id, &r);
    std::vector<double> lat, qwait, service;
    size_t refused = 0;
    for (size_t i = 0; i < offered.size(); ++i) {
        run.genLateMaxMs = std::max(run.genLateMaxMs, late_ms[i]);
        if (!run.checks.expect(sub[i].ok(), "live request refused",
                               kLiveIdBase + i)) {
            refused++;
            if (offered[i].kind == serve::RequestKind::Inference)
                lat.push_back(1e9); // beyond every percentile
            continue;
        }
        if (offered[i].kind != serve::RequestKind::Inference)
            continue;
        const auto it = by_id.find(sub[i].id);
        if (!run.checks.expect(it != by_id.end(),
                               "live inference request unanswered",
                               kLiveIdBase + i)) {
            lat.push_back(1e9);
            continue;
        }
        const serve::InferenceResult &r = *it->second;
        lat.push_back(late_ms[i] +
                      static_cast<double>(r.doneUs - r.arrivalUs) * 1e-3);
        qwait.push_back(static_cast<double>(r.startUs - r.arrivalUs) * 1e-3);
        service.push_back(static_cast<double>(r.doneUs - r.startUs) * 1e-3);
    }
    run.attempted += offered.size();
    auto &v = run.values;
    v["live.queue_wait_ms.p50"] = perfbench::quantile(qwait, 0.5);
    v["live.queue_wait_ms.p99"] = perfbench::quantile(qwait, 0.99);
    v["live.service_ms.p50"] = perfbench::quantile(service, 0.5);
    v["live.service_ms.p99"] = perfbench::quantile(service, 0.99);
    v["live.gen_late_ms.max"] = run.genLateMaxMs;
    run.note("live: %zu requests offered at %.0f/s, %zu inference, latency "
             "from due time p50 %.3f ms p99 %.3f ms, %zu refused\n",
             offered.size(), kLiveRate, lat.size(),
             perfbench::quantile(lat, 0.5), perfbench::quantile(lat, 0.99),
             refused);
    return live;
}

// ------------------------------------------------------------ replay

struct ReplaySpec
{
    Dataset dataset;
    bool sparse = false;
    serve::TraceConfig trace;
    /** Requests per window (one runTrace call). */
    size_t window = 0;
    /** Minimum set-ups and set-up time budget (see timedSetups). */
    size_t setupSamples = 0;
    double setupBudgetS = 0;
    /** Share of a traced run given to a live session on the same
     *  server after the replay windows (0: none). */
    double liveShare = 0;
};

/** Server set-up from generated inputs; copies are made before the
 *  timer starts. */
struct ServerMaker
{
    const CsrGraph &g;
    const Features &x;
    const std::vector<DenseMatrix> &w;
    serve::ServerConfig cfg;

    struct Inputs
    {
        CsrGraph g;
        Features x;
        std::vector<DenseMatrix> w;
    };
    Inputs inputs() const { return {g, x, w}; }
    std::unique_ptr<serve::Server>
    build(Inputs in) const
    {
        return std::make_unique<serve::Server>(
            std::move(in.g), std::move(in.x), std::move(in.w), cfg);
    }
};

serve::ServerConfig
serverConfig()
{
    // The defaults except the batch cap, pinned here so a changed
    // default does not silently change the workload.
    serve::ServerConfig sc;
    sc.scheduler.maxBatch = 32;
    return sc;
}

void
replayWorkload(Run &run, const ReplaySpec &spec)
{
    const uint64_t seed = run.args.seed;
    DatasetGraph data = buildDataset(spec.dataset);
    const CsrGraph &g = data.graph;
    Rng rng(seed);
    const Features x =
        makeFeatures(g.numNodes(), data.info.numFeatures,
                     data.info.featureDensity, rng, spec.sparse);
    const std::vector<DenseMatrix> w = makeWeights(
        modelConfig(Model::GCN, NetConfig::Algo, data.info), rng);
    serve::TraceConfig tc = spec.trace;
    tc.seed = seed;
    const std::vector<serve::Request> trace = serve::makeSyntheticTrace(g, tc);
    run.note("inputs: %s %u nodes %llu edges, features %s %zu x %zu "
             "(%llu nnz), trace %zu requests, window %zu\n",
             data.info.name.c_str(), g.numNodes(),
             static_cast<unsigned long long>(g.numEdges()),
             x.sparse ? "csr" : "dense", x.rows(), x.cols(),
             static_cast<unsigned long long>(x.nnz()), trace.size(),
             spec.window);

    const serve::ServerConfig sc = serverConfig();
    std::unique_ptr<serve::Server> server;
    run.values["setup_s"] =
        timedSetups(run, spec.setupSamples, spec.setupBudgetS, server,
                    ServerMaker{g, x, w, sc});

    perfbench::ShadowConfig shc;
    shc.stageReplay = run.args.trace;
    shc.sampleSalt = seed;
    // The untraced run checks one window only, after the measured
    // phase, so it samples densely and spends more on references.
    shc.sampleEvery = run.args.trace ? 16 : 2;
    shc.refShare = run.args.trace ? 0.25 : 2.0;
    // The untraced run builds its shadow after the measured phase, so
    // peak_rss_mb is the workload's own footprint.
    std::optional<perfbench::Shadow> shadow;
    const auto make_shadow = [&] {
        shadow.emplace(g, x, w, sc.locator, sc.wholeGraphFraction, run.sp(),
                       shc);
    };
    if (run.args.trace) {
        make_shadow();
        locatorMetrics(run, perfbench::stageSetup(g, sc.locator, run.sp()));
        obs::runtimeRegistry().resetValues();
    }

    // Measured phase: fixed-size windows, each one runTrace call on
    // the same server, so epochs carry over.
    std::vector<double> ms_per_req, prof_ms, plain_ms;
    double prof_wall = 0, window_wall = 0, plain_wall = 0, plain_busy = 0;
    serve::ReplayReport first_report;
    const double live_s = run.args.trace ? run.args.seconds * spec.liveShare : 0;
    const double deadline = perfbench::nowS() + run.args.seconds - live_s;
    size_t windows = 0;
    for (; (windows + 1) * spec.window <= trace.size() &&
           perfbench::nowS() < deadline;
         ++windows) {
        const auto begin = trace.begin() +
                           static_cast<std::ptrdiff_t>(windows * spec.window);
        const std::vector<serve::Request> win(
            begin, begin + static_cast<std::ptrdiff_t>(spec.window));
        // The traced run alternates profiled and plain windows so the
        // profiler's overhead is measured on paired neighbours.
        const bool profiled = run.args.trace && windows % 2 == 0;
        if (profiled)
            obs::enableRuntimeProfiling();
        serve::ReplayReport rep;
        double dt = 0;
        {
            Spans::Scope s(run.sp(), "replay.window", windows,
                           perfbench::kLaneMeasured);
            rep = server->runTrace(win);
            dt = s.elapsed();
        }
        if (profiled)
            obs::disableRuntimeProfiling();
        const double ms = dt * 1e3 / static_cast<double>(spec.window);
        ms_per_req.push_back(ms);
        (profiled ? prof_ms : plain_ms).push_back(ms);
        if (profiled)
            prof_wall += dt;
        window_wall += dt;
        run.attempted += spec.window;

        size_t answered = rep.inference.size();
        for (const serve::UpdateResult &u : rep.updates)
            answered += u.coalesced;
        if (!run.checks.expect(answered == win.size() &&
                                   rep.rejections.empty(),
                               "window left requests unanswered",
                               win.front().id))
            for (const serve::Request &r : win)
                run.checks.failedOps.insert(r.id);

        if (run.args.trace) {
            const double busy0 = shadow->totals().busyS;
            shadow->run(perfbench::reconstructDispatches(win, rep),
                        run.checks);
            if (!profiled) {
                plain_wall += dt;
                plain_busy += shadow->totals().busyS - busy0;
            }
        }
        if (windows == 0)
            first_report = std::move(rep);
    }
    if (windows == 0)
        throw std::runtime_error("no replay window completed");
    if (windows * spec.window + spec.window > trace.size())
        run.note("note: trace exhausted after %zu windows\n", windows);
    run.values["peak_rss_mb"] = perfbench::peakRssMb();

    // Checks of the untraced run: the first window re-driven in full
    // through the shadow, with its sampled rows against the reference.
    const std::vector<serve::Request> first_win(
        trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(spec.window));
    if (!run.args.trace) {
        make_shadow();
        shadow->run(perfbench::reconstructDispatches(first_win, first_report),
                    run.checks);
        shadow->finish(run.checks);
        const perfbench::ShadowTotals &t = shadow->totals();
        run.note("checks: first window re-driven, %llu reference rows over "
                 "%llu epochs (%llu sampled rows past the reference "
                 "budget)\n",
                 static_cast<unsigned long long>(t.refRowsChecked),
                 static_cast<unsigned long long>(t.refEpochs),
                 static_cast<unsigned long long>(t.refRowsSkipped));
    }
    perfbench::Digest d;
    for (const serve::InferenceResult &r : first_report.inference)
        digestLogits(d, r.logits);
    run.digest = d.hex();

    run.values["unit_ms"] = perfbench::median(ms_per_req);
    run.samples["unit_ms"] = ms_per_req.size();
    const double q1 = perfbench::quantile(ms_per_req, 0.25);
    const double q3 = perfbench::quantile(ms_per_req, 0.75);
    run.note("replay_rps: median %.1f, quartiles %.1f / %.1f, over %zu "
             "windows of %zu requests (%.2f s replayed)\n",
             1e3 / run.values["unit_ms"], 1e3 / q3, 1e3 / q1, windows,
             spec.window, window_wall);

    if (live_s > 0) {
        // The live layer (scheduler thread, queue, continuous batching
        // on the real clock): the next requests of the same trace,
        // offered open-loop; the shadow continues from the same epoch.
        const size_t start = windows * spec.window;
        const size_t n = std::min(
            trace.size() - start,
            static_cast<size_t>(std::llround(kLiveRate * live_s)));
        const LiveRun live =
            liveSession(run, *server, std::span(trace).subspan(start, n));
        perfbench::Checks live_checks;
        shadow->run(perfbench::reconstructDispatches(live.queue, live.report),
                    live_checks);
        shadow->finish(live_checks);
        run.checks.checksRun += live_checks.checksRun;
        run.checks.checksFailed += live_checks.checksFailed;
        for (uint64_t id : live_checks.failedOps)
            run.checks.failedOps.insert(kLiveIdBase +
                                        live.offeredIndex.at(id));
        for (const std::string &m : live_checks.messages)
            run.checks.messages.push_back("live: " + m);
    }

    if (run.args.trace) {
        if (live_s == 0)
            shadow->finish(run.checks);
        shadowMetrics(run, shadow->totals(),
                      static_cast<double>(run.attempted));
        // Scheduler and server self time: the unprofiled windows' wall
        // minus the shadow's engine and applier time for them.
        run.values["serve.sched_self_frac"] =
            plain_wall > 0 ? (plain_wall - plain_busy) / plain_wall : 0;
        runtimeMetrics(run, prof_wall);
        const double on = perfbench::median(prof_ms);
        const double off = perfbench::median(plain_ms);
        run.values["obs.trace_overhead_frac"] =
            off > 0 && on > 0 ? on / off - 1.0 : 0.0;
    }
}

// ---------------------------------------------------------- training

void
trainWorkload(Run &run)
{
    const uint64_t seed = run.args.seed;
    DatasetGraph data = buildDataset(Dataset::Reddit, 0.1);
    const CsrGraph &g = data.graph;
    const LocatorConfig locator;
    std::unique_ptr<IslandizationResult> isl;
    struct Maker
    {
        const CsrGraph &g;
        const LocatorConfig &cfg;
        int inputs() const { return 0; }
        std::unique_ptr<IslandizationResult>
        build(int) const
        {
            return std::make_unique<IslandizationResult>(islandize(g, cfg));
        }
    };
    run.values["setup_s"] = timedSetups(run, 9, 3.0, isl, Maker{g, locator});

    Rng rng(seed);
    const Features x = makeFeatures(g.numNodes(), data.info.numFeatures,
                                    data.info.featureDensity, rng);
    std::vector<DenseMatrix> w = makeWeights(
        modelConfig(Model::GCN, NetConfig::Algo, data.info), rng);
    const std::vector<DenseMatrix> w0 = w;
    DenseMatrix target(g.numNodes(), w.back().cols());
    target.fillRandom(rng, 1.0f);
    run.note("inputs: Reddit x0.1 %u nodes %llu edges, %zu features, "
             "%zu classes\n",
             g.numNodes(), static_cast<unsigned long long>(g.numEdges()),
             x.cols(), w.back().cols());

    std::vector<double> epoch_ms, prof_ms, plain_ms, fwd, bwd, sgd;
    double prof_wall = 0;
    if (run.args.trace) {
        // Set-up is profiled too: hub_detect and tpbfs_explore run here.
        obs::runtimeRegistry().resetValues();
        obs::enableRuntimeProfiling();
        const double t0 = perfbench::nowS();
        locatorMetrics(run, perfbench::stageSetup(g, locator, run.sp()));
        prof_wall += perfbench::nowS() - t0;
        obs::disableRuntimeProfiling();
    }
    DenseMatrix first_out;
    double pruned0 = -1;
    const double deadline = perfbench::nowS() + run.args.seconds;
    uint64_t epoch = 0;
    for (; epoch < 3 || perfbench::nowS() < deadline; ++epoch) {
        const bool profiled = run.args.trace && epoch % 2 == 1;
        if (profiled)
            obs::enableRuntimeProfiling();
        Spans::Scope e(run.sp(), "training.epoch", epoch,
                       perfbench::kLaneMeasured);
        ForwardCache cache;
        Gradients grads;
        double loss = 0;
        {
            Spans::Scope s(run.sp(), "training.forward", epoch,
                           perfbench::kLaneMeasured);
            cache = trainingForward(g, *isl, x, w);
            fwd.push_back(s.elapsed());
        }
        {
            Spans::Scope s(run.sp(), "training.backward", epoch,
                           perfbench::kLaneMeasured);
            DenseMatrix grad;
            loss = mseLoss(cache.output, target, &grad);
            grads = trainingBackward(g, *isl, x, w, cache, grad);
            bwd.push_back(s.elapsed());
        }
        {
            Spans::Scope s(run.sp(), "training.sgd", epoch,
                           perfbench::kLaneMeasured);
            sgdStep(w, grads, 0.05f);
            sgd.push_back(s.elapsed());
        }
        const double ms = e.elapsed() * 1e3;
        if (profiled) {
            obs::disableRuntimeProfiling();
            prof_wall += ms * 1e-3;
        }
        epoch_ms.push_back(ms);
        (profiled ? prof_ms : plain_ms).push_back(ms);

        const AggOpStats &ops = grads.backwardAggOps;
        const double pruned =
            ops.baselineOps
                ? 1.0 - static_cast<double>(ops.optimizedOps()) /
                            static_cast<double>(ops.baselineOps)
                : 0.0;
        if (epoch == 0) {
            pruned0 = pruned;
            first_out = cache.output;
        }
        run.checks.expect(std::isfinite(loss) && pruned == pruned0,
                          "loss not finite or aggregation op count moved",
                          epoch);
    }
    run.attempted = epoch;

    run.values["peak_rss_mb"] = perfbench::peakRssMb();

    // The island-consumer forward of epoch 0 against the reference.
    const DenseMatrix ref = referenceForward(g, x, w0);
    const double diff = maxAbsDiff(first_out, ref);
    run.checks.expect(diff <= 1e-4,
                      "island-consumer forward differs from reference", 0);
    perfbench::Digest d;
    d.add(first_out.data().data(), first_out.data().size() * sizeof(float));
    run.digest = d.hex();

    run.values["unit_ms"] = perfbench::median(epoch_ms);
    run.samples["unit_ms"] = epoch_ms.size();
    run.values["consumer.agg_ops_pruned_frac"] = pruned0;
    run.note("train_epoch_s: median %.4f over %llu epochs, quartiles "
             "%.4f / %.4f; forward max |diff| vs reference %.3g; "
             "aggregation ops pruned %.6f\n",
             run.values["unit_ms"] * 1e-3,
             static_cast<unsigned long long>(epoch),
             perfbench::quantile(epoch_ms, 0.25) * 1e-3,
             perfbench::quantile(epoch_ms, 0.75) * 1e-3, diff, pruned0);
    if (run.args.trace) {
        run.values["training.forward_s"] = perfbench::median(fwd);
        run.values["training.backward_s"] = perfbench::median(bwd);
        run.values["training.sgd_s"] = perfbench::median(sgd);
        runtimeMetrics(run, prof_wall);
        const double on = perfbench::median(prof_ms);
        const double off = perfbench::median(plain_ms);
        run.values["obs.trace_overhead_frac"] =
            off > 0 && on > 0 ? on / off - 1.0 : 0.0;
    }
}

// -------------------------------------------------------------- main

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    const auto &names = perfbench::workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        throw std::invalid_argument("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

void
printPerLayer(const Run &run)
{
    std::printf("%-34s %14s %-8s  %-12s %-40s %s\n", "per-layer metric",
                "value", "unit", "moves", "on", "bypassed by");
    for (const perfbench::MetricDef &m : perfbench::catalog()) {
        if (m.endToEnd)
            continue;
        std::printf("%-34s %14.6g %-8s  %-12s %-40s %s\n", m.name.c_str(),
                    run.values.at(m.name), m.unit.c_str(), m.moves.c_str(),
                    m.on.c_str(), m.bypassed.empty() ? "-" : m.bypassed.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--catalog") == 0) {
        std::printf("%s\n", perfbench::catalogJson().c_str());
        return 0;
    }
    Run run;
    try {
        run.args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    const perfbench::HostNoise host0 = perfbench::probeHost();
    const perfbench::HostSpeed speed0 = perfbench::probeHostSpeed();
    const auto ticks0 = perfbench::procStatTicks();
    run.note("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
             run.args.workload.c_str(),
             static_cast<unsigned long long>(run.args.seed),
             run.args.seconds, run.args.trace ? 1 : 0);
    try {
        const std::string &wl = run.args.workload;
        if (wl == "nell-churn") {
            ReplaySpec s{Dataset::Nell, true, {}, 50, 40, 2.5, 0.2};
            s.trace.numInference = 10000;
            s.trace.numUpdates = 30000; // updates outnumber reads 3:1
            s.trace.removeFraction = 0.5;
            replayWorkload(run, s);
        } else {
            trainWorkload(run);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     run.args.workload.c_str(), e.what());
        return 1;
    }

    perfbench::HostNoise host = host0;
    const auto ticks1 = perfbench::procStatTicks();
    const perfbench::HostSpeed speed1 = perfbench::probeHostSpeed();
    host.stealTicks = ticks1.first - ticks0.first;
    host.totalTicks = ticks1.second - ticks0.second;
    const uint64_t failed = run.checks.failedOps.size();
    const double failed_frac =
        run.attempted ? static_cast<double>(failed) / run.attempted : 1.0;
    run.values["success_frac"] = 1.0 - failed_frac;
    run.samples["success_frac"] = run.attempted;

    std::printf("host: cpu=\"%s\" nproc=%u IGCN_THREADS=%s steal_frac=%.4f "
                "gen_late_max_ms=%.3f alu_ms=%.2f/%.2f mem_ms=%.2f/%.2f "
                "(before/after)\n",
                host.cpuModel.c_str(), host.nproc, host.igcnThreads.c_str(),
                host.stealFrac(), run.genLateMaxMs, speed0.aluMs,
                speed1.aluMs, speed0.memMs, speed1.memMs);
    std::printf("checks: %llu run, %llu failed; operations %llu attempted, "
                "%llu failed (failed_frac %.6f); logits digest %s\n",
                static_cast<unsigned long long>(run.checks.checksRun),
                static_cast<unsigned long long>(run.checks.checksFailed),
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(failed), failed_frac,
                run.digest.c_str());
    for (const std::string &m : run.checks.messages)
        std::printf("check failed: %s\n", m.c_str());
    for (const perfbench::MetricDef &m : perfbench::catalog())
        if (m.endToEnd)
            std::printf("e2e %-14s %14.6g %-5s n=%-6zu (bound %.2f, %s "
                        "is better)\n",
                        m.name.c_str(), run.values.at(m.name), m.unit.c_str(),
                        run.samples.count(m.name) ? run.samples.at(m.name)
                                                  : size_t{1},
                        m.bound, m.better.c_str());
    if (run.args.trace) {
        // Layers a workload bypasses read 0.
        for (const perfbench::MetricDef &m : perfbench::catalog())
            if (!m.endToEnd)
                run.values.emplace(m.name, 0.0);
        printPerLayer(run);
        if (!run.args.traceOut.empty() &&
            !run.spans.writePerfetto(run.args.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         run.args.traceOut.c_str());
    }
    const bool correct = run.checks.checksFailed == 0 && run.attempted > 0;
    std::printf("%s\n", perfbench::resultLine(correct, run.attempted, failed,
                                              run.args.trace, run.values)
                            .c_str());
    return correct ? 0 : 1;
}
