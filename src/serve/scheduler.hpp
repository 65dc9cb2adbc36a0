/**
 * @file
 * FCFS micro-batching scheduler.
 *
 * Batching rule (the µLLM/vLLM continuous-batching shape adapted to
 * graph serving, same discipline as SloScheduler): pop the queue
 * head; the batch starts at start = max(engine-busy-until, head
 * arrival) and admits the same-kind requests with arrival <= start,
 * up to the kind's size cap — the batch is whatever is eligible when
 * the engine frees up, with no straggler wait. The legacy rule
 * instead held the batch open for a fixed straggler window after
 * start, taxing every admitted request with the wait for stragglers
 * even when the size cap had headroom; tests/test_serving.cpp pins
 * the differential against an in-test model of that rule. A head of
 * the other kind closes the batch — FCFS order between inference
 * and updates is never violated, which is what makes per-request
 * results independent of the batch cap (an update can never jump
 * ahead of, or fall behind, an inference request it raced in arrival
 * order).
 * Consecutive updates coalesce into one application regardless of
 * whether they add or delete edges — the applier folds the mixed
 * span into one last-write-wins net effect (the mixed-span
 * coalescing rule) — the exact batched `std::span` pattern
 * updateIslandization is tested for.
 *
 * In virtual mode the decisions above are a pure function of the
 * trace timestamps and this config — the determinism contract the
 * test suite locks in across thread counts and batch caps.
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

/** Forms FCFS micro-batches from a RequestQueue. */
class Scheduler
{
  public:
    /**
     * @param queue      the queue to drain
     * @param cfg        batching knobs
     * @param real_time  stamp dispatch times from now_us (live
     *                   traffic) rather than from trace timestamps
     *                   (trace replay)
     * @param now_us     server clock, required when real_time
     */
    Scheduler(RequestQueue &queue, SchedulerConfig cfg, bool real_time,
              RequestQueue::NowFn now_us = {});

    /**
     * Form the next micro-batch. not_before_us is the engine's
     * busy-until time (virtual mode; pass the current clock in
     * real-time mode) — the batch cannot start before it.
     * @return false when the queue is closed and drained.
     */
    bool next(uint64_t not_before_us, MicroBatch &out);

    const SchedulerConfig &config() const { return cfg; }

  private:
    RequestQueue &queue;
    SchedulerConfig cfg;
    bool realTime;
    RequestQueue::NowFn nowUs;
};

/**
 * The SLO-aware scheduler core: EDF + drop-expired over admitted
 * inference requests, arrival-ordered update application, and
 * bounded-staleness interleaving.
 *
 * Policy, applied at every engine-free moment t:
 *
 *  1. Drop every pooled inference request whose deadline passed
 *     (< t): Expired if it was eligible and simply waited too long,
 *     ShedStale if it was blocked on its freshness gate.
 *  2. If any pooled inference request is *eligible* — the applier is
 *     within its staleness budget (0 for Strict, K for Bounded) —
 *     serve an inference batch: eligible requests in EDF order, up
 *     to maxBatch.
 *  3. Otherwise, if updates are pending, apply a coalesced update
 *     batch (up to maxUpdateCoalesce).
 *
 * Step 2 before step 3 is what keeps p99 flat during update bursts:
 * bounded-staleness requests keep being served from the current
 * epoch while updates queue, and updates apply exactly when the
 * staleness bound forces them (every pooled request ineligible) or
 * when inference goes idle. Because ineligibility implies pending
 * updates (requiredSeq counts only admitted updates), the policy
 * never deadlocks; K therefore truly bounds how far any served
 * request's epoch can lag the updates admitted before it.
 *
 * Unlike the FCFS Scheduler there is no batching wait: a batch is
 * whatever is eligible when the engine frees up (continuous
 * batching) — under load batches fill from the backlog, under light
 * load requests go out alone immediately.
 *
 * Single-threaded; decisions are a pure function of the admitted
 * request timestamps, the config, and the fault plan — the replay
 * determinism contract.
 */
class SloScheduler
{
  public:
    SloScheduler(SchedulerConfig batch_cfg, SloConfig slo,
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

    /** Tell the scheduler an update application finished (advances
     *  the applied sequence eligibility is measured against). Called
     *  implicitly for batches it forms. */
    uint64_t appliedSeq() const { return applied; }
    uint64_t admittedUpdates() const { return admittedUpd; }

  private:
    SchedulerConfig cfg;
    SloConfig slo;
    const FaultPlan *faults;
    EdfQueue inf;
    std::deque<Request> upd;
    uint64_t admittedUpd = 0;
    uint64_t applied = 0;
};

} // namespace igcn::serve
