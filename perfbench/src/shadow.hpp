/**
 * @file
 * Outside-in verification and attribution of a served run.
 *
 * A run's report says which requests rode in which dispatch. The
 * shadow rebuilds that dispatch sequence and drives it again through
 * its own GraphStateHub, InferenceEngine and UpdateApplier, so every
 * epoch of the run exists again: logits and epochs must match the run
 * bit for bit, and a fixed sample of served rows must equal
 * referenceForward on the graph of the epoch each row was served at.
 * With stage replay on, each dispatch is also re-executed from the
 * program's public functions (L-hop set, sub-CSR, normalisation,
 * gathers, gemm, aggregation, ReLU; edge edit, incremental
 * islandize, degree scaling, A_hat refresh), one span per call.
 */

#pragma once

#include <span>

#include "common.hpp"
#include "serve/server.hpp"

namespace perfbench {

/** One dispatch of a served run, rebuilt from its report. */
struct Dispatch
{
    bool update = false;
    uint64_t startUs = 0;
    std::vector<igcn::serve::Request> requests;
    /** Inference: the served results, in batch order. */
    std::vector<const igcn::serve::InferenceResult *> results;
    /** Update: the application's result. */
    const igcn::serve::UpdateResult *applied = nullptr;
};

/**
 * Rebuild the dispatch sequence of a run from its report. `queue`
 * holds the run's requests in queue order (arrival order for replay,
 * submission order live). An inference batch is a run of `batchSize`
 * consecutive results sharing `startUs`; an update application folds
 * `coalesced` consecutive queued requests starting at its `id`.
 * Dispatches are ordered by start time; on a tie an update that
 * published epoch E goes before the batches served at E or later.
 * Throws std::runtime_error when the report does not fit the queue.
 */
std::vector<Dispatch>
reconstructDispatches(std::span<const igcn::serve::Request> queue,
                      const igcn::serve::ReplayReport &report);

/** What the shadow re-drives and checks. */
struct ShadowConfig
{
    /** Re-execute every dispatch from public functions (traced run). */
    bool stageReplay = false;
    /** A request is in the fixed sample iff
     *  mix64(id ^ sampleSalt) % sampleEvery == 0. */
    uint64_t sampleSalt = 0;
    uint64_t sampleEvery = 64;
    /** Reference budget: a sampled row's epoch gets a referenceForward
     *  (one whole-graph forward) if it is the first, or while reference
     *  time so far is at most this share of the shadow's engine and
     *  applier time. The checked epochs so spread over the whole run;
     *  sampled rows past the budget are counted as unchecked, and
     *  finish() checks the last of them. */
    double refShare = 0.25;
};

/** Counts and timings the shadow gathered (per-layer metrics). */
struct ShadowTotals
{
    uint64_t batches = 0;
    uint64_t wholeGraphBatches = 0;
    uint64_t inferenceRequests = 0;
    uint64_t applications = 0;
    uint64_t coalescedRequests = 0;
    uint64_t noopApplications = 0;
    double fieldNodes = 0;
    double fieldEdges = 0;
    uint64_t subgraphBatches = 0;
    std::vector<double> runBatchMs;
    std::vector<double> applyMs;
    /** Engine plus applier seconds, running total. */
    double busyS = 0;
    uint64_t edgesScanned = 0;
    uint64_t nodesReclassified = 0;
    double combineL0Macs = 0;
    uint64_t refRowsChecked = 0;
    /** Sampled rows served at an epoch past the reference budget. */
    uint64_t refRowsSkipped = 0;
    uint64_t refEpochs = 0;
    /** Seconds spent in referenceForward. */
    double refS = 0;
    /** False when the dirty-endpoint sweep is not in this build. */
    bool dirtySweepPresent = false;
};

/** The shadow: see file comment. */
class Shadow
{
  public:
    Shadow(igcn::CsrGraph g, igcn::Features x,
           std::vector<igcn::DenseMatrix> weights,
           igcn::LocatorConfig locator, double whole_graph_fraction,
           Spans *spans, ShadowConfig cfg);

    /** Re-drive dispatches (in order); epochs carry over between
     *  calls. Mismatching dispatches fail all their requests. */
    void run(const std::vector<Dispatch> &dispatches, Checks &checks);

    /** Check the last sampled row the budget skipped, if its epoch has
     *  no reference yet, so the last epoch served is always covered. */
    void finish(Checks &checks);

    const ShadowTotals &totals() const { return tot; }

  private:
    void inference(const Dispatch &d, Checks &checks);
    void update(const Dispatch &d, Checks &checks);
    std::vector<std::vector<float>>
    stageInference(const igcn::serve::GraphState &st,
                   std::span<const igcn::serve::Request> batch,
                   uint64_t id);
    void stageUpdate(const igcn::serve::GraphState &cur,
                     std::span<const igcn::serve::Request> batch,
                     const igcn::serve::UpdateResult &expected,
                     Checks &checks, uint64_t id);
    void referenceCheck(
        const std::shared_ptr<const igcn::serve::GraphState> &st,
        const igcn::serve::InferenceResult &r, Checks &checks);
    void computeReference(const igcn::serve::GraphState &st);
    bool sampled(uint64_t id) const;

    igcn::Features x;
    std::vector<igcn::DenseMatrix> weights;
    igcn::LocatorConfig locator;
    double wholeGraphFraction;
    Spans *spans;
    ShadowConfig cfg;
    std::shared_ptr<igcn::serve::GraphStateHub> hub;
    igcn::serve::InferenceEngine engine;
    igcn::serve::UpdateApplier applier;
    ShadowTotals tot;
    bool refValid = false;
    uint64_t refEpoch = 0;
    igcn::DenseMatrix ref;
    /** The last sampled row past the budget and the state it saw. */
    std::shared_ptr<const igcn::serve::GraphState> skippedState;
    igcn::serve::InferenceResult skippedRow;
};

/** Lanes of the benchmark's own trace. */
inline constexpr uint32_t kLaneMeasured = 1;
inline constexpr uint32_t kLaneShadow = 2;
inline constexpr uint32_t kLaneStage = 3;
inline constexpr uint32_t kLaneSetup = 4;

/** Set-up stage replay: islandize, degree scaling and A_hat refresh
 *  of g under spans (what makeGraphState runs). */
igcn::IslandizationResult stageSetup(const igcn::CsrGraph &g,
                                     const igcn::LocatorConfig &locator,
                                     Spans *spans);

} // namespace perfbench
