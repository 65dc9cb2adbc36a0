/**
 * @file
 * The two request containers of the serving subsystem.
 *
 *  - RequestQueue: the thread-safe hand-off of live traffic.
 *    Submitter threads push requests stamped by the server clock;
 *    the real-time scheduler thread drains them, blocking in popHead
 *    only while the scheduler has nothing pooled. Replay never uses
 *    it: the replay loop admits trace requests directly.
 *  - EdfQueue: the scheduler's single-threaded pool of admitted
 *    inference requests, in EDF order (SLO serving) or arrival order
 *    (FCFS serving).
 */

#pragma once

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "runtime/thread_annotations.hpp"
#include "serve/request.hpp"

namespace igcn::serve {

/** FIFO hand-off between submitter threads and the live scheduler
 *  thread; see file comment. */
class RequestQueue
{
  public:
    /** Append a request (FIFO) and wake waiters. */
    void push(Request r);

    /** Non-blocking pop of the head. */
    bool tryPop(Request &out);

    /**
     * Blocking pop of the head: waits until a request is queued or
     * the queue is closed. False once the queue is closed and
     * drained.
     */
    bool popHead(Request &out);

    /** Mark end-of-stream; blocked pops return once drained. */
    void close();

  private:
    Mutex mutex;
    CondVar cv;
    std::deque<Request> items IGCN_GUARDED_BY(mutex);
    bool isClosed IGCN_GUARDED_BY(mutex) = false;
};

/**
 * Pool of admitted inference requests, popped in one of two orders.
 *
 * EDF order (SLO serving), key (deadline, priority, arrival,
 * admission order): earliest deadline first, with no-deadline
 * requests (deadlineUs == 0) forming an arrival-ordered tail after
 * every deadlined request, and Priority breaking deadline ties.
 * Arrival order (FCFS serving), key (arrival, admission order):
 * deadlines and priorities are ignored.
 *
 * The pool also carries each request's freshness requirement:
 * `requiredSeq` is the number of update requests admitted before it,
 * and the request is *eligible* once the applier has caught up to
 * within its staleness budget (0 for Freshness::Strict, the
 * configured bound for Bounded). Scheduling = pop eligible entries
 * in pool order; in EDF order, requests whose deadline passes while
 * pooled are dropped and classified (Expired if they were eligible
 * and simply waited too long, ShedStale if the freshness gate was
 * the blocker).
 *
 * Single-threaded by design: the replay loop owns one, and the
 * real-time scheduler thread owns one. Thread-safe hand-off happens
 * upstream in RequestQueue.
 */
class EdfQueue
{
  public:
    struct Entry
    {
        Request req;
        /** Update requests admitted before this one. */
        uint64_t requiredSeq = 0;
    };

    /** A dropped entry and why it was dropped. */
    struct Dropped
    {
        Entry entry;
        ServeError error = ServeError::Expired;
    };

    /** @param edf  EDF order; false = arrival order (see class
     *              comment) */
    explicit EdfQueue(bool edf = true) : edf(edf) {}

    void add(Request r, uint64_t required_seq);

    bool empty() const { return pool.empty(); }
    size_t size() const { return pool.size(); }

    /** Earliest arrival among pooled entries (pool must be
     *  non-empty). */
    uint64_t earliestArrivalUs() const;

    /** Smallest requiredSeq among pooled entries (pool must be
     *  non-empty). */
    uint64_t minRequiredSeq() const;

    /**
     * Pop the first entry in pool order eligible at `applied_seq`
     * updates applied, under staleness bound K (Strict entries use
     * 0).
     * False when no pooled entry is eligible.
     */
    bool popEligible(uint64_t applied_seq, uint32_t staleness_bound,
                     Entry &out);

    /**
     * Remove every entry whose nonzero deadline is < now_us and
     * classify it: Expired if it was eligible when dropped,
     * ShedStale if its freshness gate was unsatisfied.
     */
    std::vector<Dropped> dropExpired(uint64_t now_us,
                                     uint64_t applied_seq,
                                     uint32_t staleness_bound);

  private:
    struct Key
    {
        uint64_t deadline; // 0 mapped to UINT64_MAX
        uint8_t priority;
        uint64_t arrival;
        uint64_t admitted; // admission order
        auto operator<=>(const Key &) const = default;
    };
    static bool eligible(const Entry &e, uint64_t applied_seq,
                         uint32_t staleness_bound);

    bool edf;
    uint64_t admittedCount = 0;
    std::map<Key, Entry> pool;
};

} // namespace igcn::serve
