/**
 * @file
 * Self-tests of the benchmark's own machinery:
 *  - dispatch reconstruction is exact on a small trace with coalesced
 *    updates and deletions (against the server's own span trace);
 *  - the shadow and stage replay reproduce that trace with no failed
 *    check, a perturbed logit is caught, and the reference budget
 *    still covers the last sampled row;
 *  - every metric name is valid and unique.
 * Exit status 0 when all pass.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "gcn/models.hpp"
#include "graph/generators.hpp"
#include "metrics.hpp"
#include "serve/trace.hpp"
#include "shadow.hpp"

using namespace igcn;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        failures++;
}

struct Fixture
{
    CsrGraph g;
    Features x;
    std::vector<DenseMatrix> w;
    std::vector<serve::Request> trace;
    serve::ServerConfig cfg;
};

Fixture
makeFixture()
{
    Fixture f;
    HubIslandParams p;
    p.numNodes = 400;
    p.seed = 7;
    f.g = hubAndIslandGraph(p).graph;
    Rng rng(11);
    f.x = makeFeatures(f.g.numNodes(), 12, 1.0, rng);
    ModelConfig mc;
    mc.layers = {{12, 8}, {8, 4}};
    f.w = makeWeights(mc, rng);
    serve::TraceConfig tc;
    tc.numInference = 600;
    tc.numUpdates = 400;
    tc.removeFraction = 0.5;
    tc.meanGapUs = 2.0; // arrivals outrun service: batches and spans form
    tc.seed = 5;
    f.trace = serve::makeSyntheticTrace(f.g, tc);
    f.cfg.scheduler.maxBatch = 8;
    f.cfg.obs.traceEnabled = true;
    return f;
}

perfbench::Shadow
makeShadow(const Fixture &f, bool stage, double ref_share = 0.25)
{
    perfbench::ShadowConfig sc;
    sc.stageReplay = stage;
    sc.sampleEvery = 4;
    sc.refShare = ref_share;
    return perfbench::Shadow(f.g, f.x, f.w, f.cfg.locator,
                             f.cfg.wholeGraphFraction, nullptr, sc);
}

void
testReconstruction()
{
    Fixture f = makeFixture();
    serve::Server server(f.g, f.x, f.w, f.cfg);
    const serve::ReplayReport rep = server.runTrace(f.trace);
    const std::vector<perfbench::Dispatch> ds =
        perfbench::reconstructDispatches(f.trace, rep);

    // Ground truth: the server's own batch spans, in dispatch order.
    std::vector<std::pair<bool, uint64_t>> truth; // (update, size)
    std::vector<uint64_t> starts;
    for (const obs::TraceEvent &e : server.traceRecorder().events()) {
        if (e.name != "infer-batch" && e.name != "update-batch")
            continue;
        const bool upd = e.name == "update-batch";
        uint64_t size = 0;
        for (const auto &[k, v] : e.num)
            if (k == (upd ? "coalesced" : "size"))
                size = v;
        truth.emplace_back(upd, size);
        starts.push_back(e.tsUs);
    }
    bool same = truth.size() == ds.size();
    uint64_t coalesced = 0, removed = 0;
    for (size_t i = 0; same && i < ds.size(); ++i) {
        same = truth[i].first == ds[i].update &&
               truth[i].second == ds[i].requests.size() &&
               starts[i] == ds[i].startUs;
        if (ds[i].update) {
            coalesced += ds[i].requests.size() > 1;
            removed += ds[i].applied->edgesRemoved;
        }
    }
    expect(same, "reconstructed dispatches equal the server's batch spans");
    expect(coalesced > 0 && removed > 0,
           "the trace exercises coalesced spans and deletions");

    perfbench::Checks checks;
    perfbench::Shadow shadow = makeShadow(f, /*stage=*/true);
    shadow.run(ds, checks);
    expect(checks.checksFailed == 0 && checks.checksRun > f.trace.size(),
           "shadow and stage replay reproduce every dispatch");
    expect(shadow.totals().refRowsChecked > 0,
           "sampled rows were checked against referenceForward");

    // With no reference budget past the first epoch, finish() still
    // checks the last sampled row the budget skipped.
    perfbench::Checks tight_checks;
    perfbench::Shadow tight = makeShadow(f, /*stage=*/false, 0.0);
    tight.run(ds, tight_checks);
    const perfbench::ShadowTotals before = tight.totals();
    tight.finish(tight_checks);
    expect(before.refEpochs == 1 && before.refRowsSkipped > 0 &&
               tight.totals().refEpochs == 2 &&
               tight.totals().refRowsSkipped == before.refRowsSkipped - 1 &&
               tight_checks.checksFailed == 0,
           "finish() checks the last sampled row past the budget");

    // A single flipped low bit in one served logit must be caught.
    serve::ReplayReport bad = rep;
    serve::InferenceResult &victim = bad.inference[bad.inference.size() / 2];
    uint32_t bits;
    std::memcpy(&bits, &victim.logits[0], sizeof bits);
    bits ^= 1u;
    std::memcpy(&victim.logits[0], &bits, sizeof bits);
    perfbench::Checks bad_checks;
    perfbench::Shadow shadow2 = makeShadow(f, /*stage=*/false);
    shadow2.run(perfbench::reconstructDispatches(f.trace, bad), bad_checks);
    expect(bad_checks.checksFailed > 0 &&
               bad_checks.failedOps.count(victim.id) == 1,
           "a perturbed logit is caught and fails its request");

    // A report that names a request outside the queue is refused.
    bool threw = false;
    try {
        perfbench::reconstructDispatches(
            std::span(f.trace).subspan(0, f.trace.size() / 2), rep);
    } catch (const std::runtime_error &) {
        threw = true;
    }
    expect(threw, "a report that does not fit its queue is refused");
}

void
testMetricNames()
{
    bool valid = true, unique = true, units = true;
    std::vector<std::string> seen;
    size_t e2e = 0;
    for (const perfbench::MetricDef &m : perfbench::catalog()) {
        valid = valid && perfbench::validMetricName(m.name);
        unique = unique &&
                 std::find(seen.begin(), seen.end(), m.name) == seen.end();
        seen.push_back(m.name);
        units = units && !m.unit.empty() && m.unit.size() <= 16 &&
                (m.better == "higher" || m.better == "lower");
        e2e += m.endToEnd;
    }
    expect(valid, "every metric name matches [A-Za-z0-9_.-]+");
    expect(unique, "metric names are unique");
    expect(units, "every metric has a unit and a direction");
    expect(e2e >= 1 && seen.size() - e2e <= 128,
           "metric counts fit the limits of BENCHMARK.json");
    expect(!perfbench::validMetricName("bad name") &&
               !perfbench::validMetricName("_lead") &&
               !perfbench::validMetricName("x/y"),
           "invalid names are rejected");
}

} // namespace

int
main()
{
    testReconstruction();
    testMetricNames();
    std::printf("%s\n", failures ? "SELF-TEST FAILED" : "self-test passed");
    return failures ? 1 : 0;
}
