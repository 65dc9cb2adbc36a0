#include "serve/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace igcn::serve {

Scheduler::Scheduler(RequestQueue &queue, SchedulerConfig cfg,
                     bool real_time, RequestQueue::NowFn now_us)
    : queue(queue), cfg(cfg), realTime(real_time),
      nowUs(std::move(now_us))
{
    if (realTime && !nowUs)
        throw std::invalid_argument(
            "Scheduler: real_time mode requires a now_us clock");
}

bool
Scheduler::next(uint64_t not_before_us, MicroBatch &out)
{
    Request first;
    if (queue.popHead(first) == RequestQueue::Pop::Closed)
        return false;

    // Continuous batching (the SloScheduler discipline): the batch
    // starts the moment the engine and the head are both ready, and
    // admits exactly the same-kind requests already arrived by then —
    // no straggler wait, so under light load requests go out alone
    // immediately and under load batches fill from the backlog.
    const uint64_t start = std::max(not_before_us, first.arrivalUs);
    const uint32_t cap = first.kind == RequestKind::Inference
        ? std::max<uint32_t>(1, cfg.maxBatch)
        : std::max<uint32_t>(1, cfg.maxUpdateCoalesce);

    out.kind = first.kind;
    out.requests.clear();
    out.requests.push_back(std::move(first));
    Request r;
    while (out.requests.size() < cap &&
           queue.popKindBefore(out.kind, start, r) ==
               RequestQueue::Pop::Got)
        out.requests.push_back(std::move(r));

    // The dispatch moment: the batch boundary is the engine-free
    // instant itself in both clock disciplines (real-time arrivals
    // are stamped by the same clock, so everything queued is already
    // eligible).
    out.formedAtUs = realTime ? nowUs() : start;
    return true;
}

// -------------------------------------------------------- SloScheduler

SloScheduler::SloScheduler(SchedulerConfig batch_cfg, SloConfig slo,
                           const FaultPlan *faults)
    : cfg(batch_cfg), slo(slo), faults(faults)
{}

void
SloScheduler::admit(Request r)
{
    if (r.kind == RequestKind::Update) {
        admittedUpd++;
        upd.push_back(std::move(r));
    } else {
        inf.add(std::move(r), admittedUpd);
    }
}

uint64_t
SloScheduler::nextDispatchTimeUs(uint64_t busy_until_us) const
{
    uint64_t earliest = ~uint64_t{0};
    if (!inf.empty())
        earliest = inf.earliestArrivalUs();
    if (!upd.empty())
        earliest = std::min(earliest, upd.front().arrivalUs);
    uint64_t t = std::max(busy_until_us, earliest);
    if (faults)
        t = faults->resolveStall(t);
    return t;
}

bool
SloScheduler::next(uint64_t busy_until_us, Decision &out)
{
    out = Decision{};
    if (empty())
        return false;
    const uint64_t t = nextDispatchTimeUs(busy_until_us);

    // 1. Drop-expired: requests that cannot start by their deadline
    // are refused, never served late.
    out.dropped = inf.dropExpired(t, applied, slo.stalenessBound);

    // 2. EDF inference batch over eligible requests.
    const uint32_t inf_cap = std::max<uint32_t>(1, cfg.maxBatch);
    EdfQueue::Entry e;
    while (out.batch.requests.size() < inf_cap &&
           inf.popEligible(applied, slo.stalenessBound, e)) {
        out.epochsBehind.push_back(static_cast<uint32_t>(
            e.requiredSeq > applied ? e.requiredSeq - applied : 0));
        out.batch.requests.push_back(std::move(e.req));
    }
    if (!out.batch.requests.empty()) {
        out.kind = Decision::Kind::Inference;
        out.batch.kind = RequestKind::Inference;
        out.batch.formedAtUs = t;
        return true;
    }

    // 3. Update application (coalesced). Reached when no inference
    // is eligible: pool empty, or everyone is blocked on these
    // updates.
    if (!upd.empty()) {
        const uint32_t upd_cap =
            std::max<uint32_t>(1, cfg.maxUpdateCoalesce);
        out.kind = Decision::Kind::Update;
        out.batch.kind = RequestKind::Update;
        out.batch.formedAtUs = t;
        while (out.batch.requests.size() < upd_cap && !upd.empty()) {
            out.batch.requests.push_back(std::move(upd.front()));
            upd.pop_front();
        }
        applied += out.batch.requests.size();
        return true;
    }

    // Only drops happened this step (possibly emptying the pool).
    out.kind = Decision::Kind::Drops;
    out.batch.formedAtUs = t;
    return true;
}

} // namespace igcn::serve
