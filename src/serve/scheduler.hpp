/**
 * @file
 * The serving scheduler: one micro-batching core for FCFS and SLO
 * serving, replay and live traffic alike.
 *
 * Continuous batching (the µLLM/vLLM shape adapted to graph
 * serving): at every engine-free moment the scheduler forms one
 * batch from the requests already admitted, with no straggler wait
 * — under load batches fill from the backlog, under light load
 * requests go out alone immediately. The legacy rule instead held
 * the batch open for a fixed straggler window; tests/test_serving.cpp
 * pins the differential against an in-test model of that rule.
 *
 * Inference and updates interleave as graph epochs: each inference
 * request records how many updates were admitted before it, and is
 * served only once enough of them are applied. Consecutive updates
 * coalesce into one application regardless of whether they add or
 * delete edges — the applier folds the mixed span into one
 * last-write-wins net effect, the exact batched `std::span` pattern
 * updateIslandization is tested for.
 *
 * In replay the decisions are a pure function of the admitted
 * request timestamps, this config and the fault plan — the
 * determinism contract the test suite locks in across thread counts
 * and batch caps.
 */

#pragma once

#include "serve/queue.hpp"
#include "serve/slo.hpp"

namespace igcn::serve {

/** Micro-batching knobs. */
struct SchedulerConfig
{
    /** Inference micro-batch size cap. */
    uint32_t maxBatch = 32;
    /** Consecutive update requests folded into one application. */
    uint32_t maxUpdateCoalesce = 64;
};

/** One scheduled micro-batch (all requests share a kind). */
struct MicroBatch
{
    RequestKind kind = RequestKind::Inference;
    std::vector<Request> requests;
    /** Dispatch time: when the batch left the queue. */
    uint64_t formedAtUs = 0;
};

/**
 * The scheduler core: a pool of admitted inference requests, an
 * arrival-ordered update queue, and one decision per engine-free
 * moment t:
 *
 *  1. SLO only: drop every pooled inference request whose deadline
 *     passed (< t): Expired if it was eligible and simply waited too
 *     long, ShedStale if it was blocked on its freshness gate.
 *  2. If any pooled inference request is *eligible* — the applier is
 *     within its staleness budget — serve an inference batch:
 *     eligible requests in pool order, up to maxBatch.
 *  3. Otherwise apply a coalesced update batch, up to
 *     maxUpdateCoalesce.
 *
 * With the SLO layer on (`slo.enabled`), the pool is in EDF order,
 * Freshness::Bounded requests may run up to `slo.stalenessBound`
 * updates behind (Strict ones 0), and the fault plan's engine
 * stalls delay dispatch. Step 2 before step 3 keeps p99 flat during
 * update bursts: bounded-staleness requests keep being served from
 * the current epoch while updates queue, and updates apply exactly
 * when the staleness bound forces them (every pooled request
 * ineligible) or when inference goes idle.
 *
 * With the SLO layer off the scheduler is FCFS: the pool is in
 * arrival order, nothing is dropped, staleness is 0, the fault plan
 * is ignored, and an update batch never reaches past the first
 * pooled inference request in arrival order. So each inference
 * request sees exactly the updates that arrived before it, and
 * per-request results are independent of the batch caps. (Without
 * that cap, U1@0, I1@1, U2@2 with the engine busy until 10 would
 * coalesce {U1, U2} and serve I1 one epoch late.)
 *
 * Either way ineligibility implies pending updates (requiredSeq
 * counts only admitted updates), so the policy never deadlocks and
 * an update batch is never empty.
 *
 * Single-threaded: the replay loop owns one, and the real-time
 * scheduler thread owns one.
 */
class Scheduler
{
  public:
    Scheduler(SchedulerConfig batch_cfg, SloConfig slo,
              const FaultPlan *faults = nullptr);

    /** Pool an admitted request (admission control happens
     *  upstream). Updates advance the admitted-update sequence that
     *  later requests' freshness is measured against. */
    void admit(Request r);

    /** Requests currently pooled (inference + updates). */
    size_t depth() const { return inf.size() + upd.size(); }
    bool empty() const { return depth() == 0; }

    /** Engine-free dispatch time for the next decision: max(busy,
     *  earliest pooled arrival), slid past engine-stall windows.
     *  Pools must be non-empty. */
    uint64_t nextDispatchTimeUs(uint64_t busy_until_us) const;

    /** What the scheduler decided to do at one dispatch point. */
    struct Decision
    {
        enum class Kind : uint8_t { Inference, Update, Drops } kind =
            Kind::Drops;
        MicroBatch batch;
        /** Per-request staleness (parallel to batch.requests;
         *  Inference only): admitted-before updates still unapplied
         *  at dispatch. */
        std::vector<uint32_t> epochsBehind;
        /** Requests dropped at this dispatch point (deadline
         *  passed). */
        std::vector<EdfQueue::Dropped> dropped;
    };

    /**
     * Form the next decision at the engine-free time busy_until_us.
     * Returns false when nothing is pooled. Kind::Drops means the
     * step only dropped expired requests (the pools may now be
     * empty); call again for the next batch.
     */
    bool next(uint64_t busy_until_us, Decision &out);

    /** Update requests applied so far: every update batch this
     *  scheduler formed counts as applied once formed. */
    uint64_t appliedSeq() const { return applied; }

  private:
    SchedulerConfig cfg;
    /** SLO layer off: arrival order, no drops, capped coalescing. */
    bool fcfs;
    const FaultPlan *faults;
    uint32_t stalenessBound;
    EdfQueue inf;
    std::deque<Request> upd;
    uint64_t admittedUpd = 0;
    uint64_t applied = 0;
};

} // namespace igcn::serve
