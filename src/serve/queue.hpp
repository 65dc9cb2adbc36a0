/**
 * @file
 * Thread-safe FCFS request queue.
 *
 * The queue is strictly first-come-first-served: the scheduler only
 * ever inspects and pops the *head*, so requests can never be
 * reordered — an Update at the head closes the inference micro-batch
 * being formed, which is what gives updates their sequence-point
 * semantics (every inference request before the update in arrival
 * order is served against the pre-update epoch, everything after
 * against the post-update epoch).
 *
 * Two clock disciplines share one implementation:
 *  - virtual (replay) mode: the driver pre-loads the entire trace and
 *    closes the queue; batching decisions are a pure function of the
 *    trace timestamps and the scheduler config;
 *  - real-time mode: arrivals are stamped by the server clock and
 *    popHead blocks until a request is queued or the queue closes.
 * In both, the batch is filled by popKindBefore, which never blocks:
 * it takes only requests already queued when the batch starts.
 */

#pragma once

#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "runtime/thread_annotations.hpp"
#include "serve/request.hpp"

namespace igcn::serve {

/** FCFS queue; see file comment for the two clock disciplines. */
class RequestQueue
{
  public:
    /** Clock used by real-time waits: microseconds on the server clock. */
    using NowFn = std::function<uint64_t()>;

    enum class Pop : uint8_t
    {
        Got,      ///< head popped into out
        NotReady, ///< head exists but is ineligible (kind/deadline)
        Closed,   ///< queue closed and drained
    };

    /** Append a request (FIFO) and wake waiters. */
    void push(Request r);

    /** Non-blocking pop of the head, whatever its kind. */
    bool tryPop(Request &out);

    /** Mark end-of-stream; blocked pops return once drained. */
    void close();

    bool closed() const;
    size_t size() const;

    /**
     * Blocking pop of the head, whatever its kind: waits until a
     * request is queued or the queue is closed and drained. Never
     * returns NotReady.
     */
    Pop popHead(Request &out);

    /**
     * Non-blocking pop of the head only if it is a `kind` request
     * with arrival <= deadline_us: an empty queue, a different kind,
     * or a later arrival is NotReady (an empty closed queue is
     * Closed).
     */
    Pop popKindBefore(RequestKind kind, uint64_t deadline_us,
                      Request &out);

  private:
    mutable Mutex mutex;
    CondVar cv;
    std::deque<Request> items IGCN_GUARDED_BY(mutex);
    bool isClosed IGCN_GUARDED_BY(mutex) = false;
};

/**
 * Earliest-deadline-first pool of admitted inference requests.
 *
 * Ordering key: (deadline, priority, arrival, id) — EDF first, with
 * no-deadline requests (deadlineUs == 0) forming an arrival-ordered
 * tail after every deadlined request, and Priority breaking deadline
 * ties. The pool also carries each request's freshness requirement:
 * `requiredSeq` is the number of update requests admitted before it,
 * and the request is *eligible* once the applier has caught up to
 * within its staleness budget (0 for Freshness::Strict, the
 * configured bound for Bounded). Scheduling = pop eligible entries
 * in EDF order; requests whose deadline passes while pooled are
 * dropped and classified (Expired if they were eligible and simply
 * waited too long, ShedStale if the freshness gate was the blocker).
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

    void add(Request r, uint64_t required_seq);

    bool empty() const { return pool.empty(); }
    size_t size() const { return pool.size(); }

    /** Earliest arrival among pooled entries (pool must be
     *  non-empty). */
    uint64_t earliestArrivalUs() const;

    /**
     * Pop the EDF-first entry eligible at `applied_seq` updates
     * applied, under staleness bound K (Strict entries use 0).
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
        uint64_t id;
        auto operator<=>(const Key &) const = default;
    };
    static Key keyOf(const Request &r, uint64_t required_seq);
    static bool eligible(const Entry &e, uint64_t applied_seq,
                         uint32_t staleness_bound);

    std::map<Key, Entry> pool;
};

} // namespace igcn::serve
