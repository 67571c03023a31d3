/**
 * @file
 * Deterministic discrete-event queue with nanosecond ticks.
 *
 * Events scheduled for the same tick fire in schedule order (a
 * monotonically increasing sequence number breaks ties), so simulations
 * are fully deterministic regardless of container internals.
 *
 * The implementation is built for host throughput — this queue is the
 * innermost loop of every simulation:
 *
 *  - Event callables live in pooled, free-listed EventNodes with a
 *    small-buffer-optimized payload: scheduling performs no heap
 *    allocation in steady state (only callables larger than
 *    inlineCallableBytes fall back to the heap, counted by
 *    heapCallables()).
 *  - Pending nodes sit in a radix heap keyed on `when` and based at
 *    now(): 65 intrusive FIFO buckets, where bucket 0 holds the events
 *    of the current tick and bucket b (1..64) the events whose `when`
 *    first differs from now(), scanning from the top, at bit b-1. A
 *    schedule is one bit_width plus a tail append. A pop takes bucket
 *    0's head; when bucket 0 is empty it first finds the lowest
 *    non-empty bucket (ctz of a 64-bit occupancy mask), moves now() to
 *    that bucket's minimum `when` and re-files the bucket's nodes
 *    against it.
 *
 * Pops come out in bit-exact (when, seq) order:
 *  - a node's bucket is a function of `when` and now(), so events of
 *    equal `when` always share a bucket;
 *  - buckets are FIFO and nodes enter them in seq order (new nodes
 *    carry the highest seq; a re-file walks its bucket front to back);
 *  - re-filing moves nodes only into lower buckets, which are empty at
 *    that point, so it never puts a node behind a later-scheduled one.
 *    Nodes in higher buckets agree with the new now() on every bit at
 *    and above the drained bucket's, so their buckets do not change.
 * Each bucket keeps its minimum `when` as nodes are filed, so neither
 * a pop nor tryAdvance() scans a bucket to find it.
 *
 * cancel() removes a pending event, named by the Handle schedule()
 * returned, as if it had never been scheduled. The handle carries the
 * node and its seq, and seqs are never reused, so a handle whose event
 * ran (the node free or recycled) panics instead of unlinking the
 * node's next user. A pending node always sits in bucket
 * bit_width(when ^ now()), so cancel() walks that one bucket to unlink
 * it and re-takes the bucket's minimum over the nodes that stay; the
 * others keep their FIFO order. Every remaining event then pops, and
 * tryAdvance() decides, exactly as it would had the cancelled one never
 * been scheduled.
 *
 * now() moves at a pop or at an in-place advance (tryAdvance()), and
 * each re-files every node whose bucket the move changes. An advance
 * replaces an event that would be popped next anyway: a coroutine that
 * a running event resumed as its last act (tail position) awaits a
 * positive span, and no pending event is due at or before the span's
 * end. It moves now() to that end and the coroutine goes on without
 * suspending. Dispatch order, simulated time, counter samples and
 * run()'s event count are those of the scheduled event. Nothing else
 * moves now(), so there is no runUntil().
 *
 * Each queue is one trace process (base/trace.hh): it takes the next
 * process id when it is built, and run() makes it the running process.
 */

#ifndef SHRIMP_SIM_EVENT_QUEUE_HH
#define SHRIMP_SIM_EVENT_QUEUE_HH

#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace shrimp::sim
{

class EventQueue;

namespace detail
{

/** The queue one of whose events is resuming the running coroutine as
 *  its last act, or null: tryAdvance() acts only for this queue. */
extern EventQueue *gTailQueue;

/** Resume @p h as the last act of an event of @p queue, so that its
 *  awaits may advance in place. */
inline void
resumeInTail(EventQueue &queue, std::coroutine_handle<> h)
{
    gTailQueue = &queue;
    h.resume();
    gTailQueue = nullptr;
}

/** Clears gTailQueue while a task starts eagerly (Simulator::spawn,
 *  Task::start): its starter goes on at the old time once it suspends,
 *  so the task must not advance in place. */
class EagerStart
{
  public:
    EagerStart() : saved_(std::exchange(gTailQueue, nullptr)) {}
    ~EagerStart() { gTailQueue = saved_; }

    EagerStart(const EagerStart &) = delete;
    EagerStart &operator=(const EagerStart &) = delete;

  private:
    EventQueue *saved_;
};

} // namespace detail

class EventQueue
{
    struct EventNode; // defined in the private section below

  public:
    // Defined out of line: construction and destruction register the
    // queue with the invariant checker in SHRIMP_CHECK builds.
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** This queue's trace process id (base/trace.hh). */
    std::uint32_t process() const { return process_; }

    /** A scheduled event's identity, for cancel(). A default-built
     *  handle names no event. */
    class Handle
    {
      public:
        Handle() = default;

        explicit operator bool() const { return node_ != nullptr; }

      private:
        friend class EventQueue;
        explicit Handle(EventNode *n) : node_(n), seq_(n->seq) {}

        EventNode *node_ = nullptr;
        std::uint64_t seq_ = 0;
    };

    /** Schedule @p fn to run at absolute time @p when (>= now());
     *  panics with tick/task attribution if @p when is in the past. */
    template <typename F>
    Handle
    schedule(Tick when, F &&fn)
    {
        EventNode *n = prepare(when);
        bind(*n, std::forward<F>(fn));
        enqueue(n);
        return Handle(n);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    Handle
    scheduleIn(Tick delay, F &&fn)
    {
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Remove the pending event @p h names: its callable is destroyed
     *  without running and the event never counts in run(). Panics if
     *  the event already ran (or is running) or @p h names none. */
    void cancel(Handle h);

    /**
     * Move now() forward by @p span in place of an event at now() +
     * @p span that would run next: only for a coroutine in tail
     * position (detail::resumeInTail), within run()'s event budget,
     * for a positive span, and when no pending event is due at or
     * before the span's end. Before now() moves, it takes the
     * counter sample runOne() would take as the running event returns,
     * with the skipped event counted as pending.
     * @return true if now() moved; false means schedule the event.
     */
    bool
    tryAdvance(Tick span)
    {
        const Tick target = now_ + span;
        if (detail::gTailQueue != this || target <= now_ ||
            advanceBudget_ == 0 || buckets_[0].head)
            return false;
        if (occupied_ &&
            buckets_[std::countr_zero(occupied_) + 1].min <= target)
            return false;
        advanceTo(target);
        return true;
    }

    /**
     * Run until the queue drains, as the running trace process; when
     * profiling into a trace, end on one more host sample.
     * @param max_events guard against runaway simulations; panics if
     *        exceeded.
     * @return number of events processed: those popped plus those
     *         tryAdvance() ran in place.
     */
    std::uint64_t run(std::uint64_t max_events = defaultMaxEvents);

    bool empty() const { return size_ == 0; }
    std::size_t pending() const { return size_; }

    // ---- pool introspection (tests, DESIGN.md §11 numbers) -------------
    /** Event nodes ever carved from the host heap (pool growth). Stable
     *  across steady-state scheduling: nodes recycle via the free list. */
    std::uint64_t nodesAllocated() const { return nodesAllocated_; }

    /** Callables too large for a node's inline buffer (heap fallback). */
    std::uint64_t heapCallables() const { return heapCallables_; }

    /** Events tryAdvance() ran in place instead of scheduling. */
    std::uint64_t advancedInPlace() const { return advancedInPlace_; }

    static constexpr std::uint64_t defaultMaxEvents = 500'000'000;

    /** Payload bytes stored inline in an EventNode. Sized for the
     *  common captures (a coroutine handle, a couple of pointers); a
     *  std::function<void()> (32 bytes on the usual ABIs) also fits. */
    static constexpr std::size_t inlineCallableBytes = 48;

  private:
    struct EventNode
    {
        Tick when;
        std::uint64_t seq;
        EventNode *next; //!< bucket FIFO / free-list link
        void (*invoke)(EventNode &);
        void (*destroy)(EventNode &); //!< callable dtor; null if trivial
        //! Owning subsystem (sim/profile.hh), stamped at schedule time.
        //! Lives in padding the max_align_t storage forces anyway, so
        //! the node layout and pool behavior are unchanged.
        std::uint8_t subsys;
        alignas(std::max_align_t)
            unsigned char storage[inlineCallableBytes];
    };

    struct Bucket
    {
        EventNode *head = nullptr;
        EventNode *tail = nullptr;
        Tick min = 0; //!< smallest `when` filed, valid while head != null
    };

    /** Validate @p when, stamp a fresh (pooled) node with it and the
     *  next sequence number. Out of line: keeps panic/alloc machinery
     *  out of the inlined template. */
    EventNode *prepare(Tick when);

    /** File a bound node into bucket bit_width(when ^ now_). */
    void enqueue(EventNode *n);

    /** Take pending node @p n out of its bucket, keeping the bucket's
     *  order and minimum exact. @return false if @p n is in no
     *  bucket. */
    bool unlink(EventNode *n);

    template <typename F>
    void
    bind(EventNode &n, F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineCallableBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(n.storage)) Fn(std::forward<F>(fn));
            n.invoke = [](EventNode &e) {
                (*std::launder(reinterpret_cast<Fn *>(e.storage)))();
            };
            if constexpr (std::is_trivially_destructible_v<Fn>) {
                n.destroy = nullptr;
            } else {
                n.destroy = [](EventNode &e) {
                    std::launder(reinterpret_cast<Fn *>(e.storage))->~Fn();
                };
            }
        } else {
            // Oversized capture: keep correctness, count the fallback so
            // a hot path that regresses here is visible in tests.
            auto *p = new Fn(std::forward<F>(fn));
            ::new (static_cast<void *>(n.storage)) Fn *(p);
            n.invoke = [](EventNode &e) {
                (**std::launder(reinterpret_cast<Fn **>(e.storage)))();
            };
            n.destroy = [](EventNode &e) {
                delete *std::launder(reinterpret_cast<Fn **>(e.storage));
            };
            ++heapCallables_;
        }
    }

    EventNode *allocNode();
    void freeNode(EventNode *n);

    /** Append @p n to bucket @p b and mark the bucket occupied. */
    void file(EventNode *n, int b);

    /** Empty bucket @p b, the lowest occupied one, re-filing its nodes
     *  in FIFO order against now_. */
    void refile(int b);

    /** Remove and return the earliest pending node, moving now_ to its
     *  tick; nullptr if every bucket is empty. */
    EventNode *popEarliest();

    /** Run the earliest pending event. @return false if queue empty;
     *  panics if the buckets are empty while events are pending. */
    bool runOne();

    /** tryAdvance()'s move of now_ to @p target, once it is allowed. */
    void advanceTo(Tick target);

    /** This period's counter sample, with @p pending events pending. */
    void sample(std::size_t pending);

    const std::uint32_t process_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t size_ = 0;
    //! When runOne() next samples counters (base/trace.hh sampling()).
    Tick nextSample_ = 0;
    //! Advances run() still allows in the running event.
    std::uint64_t advanceBudget_ = 0;
    std::uint64_t advancedInPlace_ = 0;

    // Radix heap (see the file comment). Bit b-1 of occupied_ is set iff
    // bucket b (1..64) is non-empty; bucket 0 is tested by its head. A
    // bucket's tail is meaningful only while its head is non-null.
    static constexpr int numBuckets = 65;
    Bucket buckets_[numBuckets];
    std::uint64_t occupied_ = 0;

    // Node pool: blocks are carved on demand and recycled through an
    // intrusive free list; steady-state scheduling never calls malloc.
    static constexpr std::size_t nodesPerBlock = 256;
    std::vector<std::unique_ptr<EventNode[]>> blocks_;
    EventNode *freeList_ = nullptr;
    std::uint64_t nodesAllocated_ = 0;
    std::uint64_t heapCallables_ = 0;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_EVENT_QUEUE_HH
