/**
 * @file
 * Synchronization primitives for simulated tasks: Condition (broadcast
 * wakeup), AddrCondition (address-range-keyed wakeup), Ledger (a
 * resource held in FIFO order for spans of simulated time) with Hold,
 * its frame-free awaiter, and Channel<T> (typed FIFO queue with a
 * frame-free blocking receive). All wakeups are routed through the
 * EventQueue so execution order stays deterministic.
 */

#ifndef SHRIMP_SIM_SYNC_HH
#define SHRIMP_SIM_SYNC_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

namespace shrimp::sim
{

namespace detail
{

/** Resume @p h at a zero-delay event, between the checker's
 *  double-resume hooks: the deferred wakeup of every primitive here. */
void resumeSoon(EventQueue &queue, std::coroutine_handle<> h);

} // namespace detail

/**
 * Broadcast condition: tasks wait(); notifyAll() wakes every current
 * waiter at the present tick. There is no predicate tracking, so waiters
 * must loop: while (!ready()) co_await cond.wait();
 */
class Condition
{
  public:
    explicit Condition(EventQueue &queue) : queue_(queue) {}

    struct WaitAwaiter
    {
        Condition &cond;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            cond.waiters_.push_back(h);
        }

        void await_resume() const noexcept {}
    };

    /** Suspend until the next notifyAll(). */
    WaitAwaiter wait() { return WaitAwaiter{*this}; }

    /** Wake all current waiters (they resume at the current tick, in
     *  the order they began waiting). */
    void notifyAll();

    std::size_t numWaiters() const { return waiters_.size(); }

  private:
    EventQueue &queue_;
    std::vector<std::coroutine_handle<>> waiters_;
    std::vector<std::coroutine_handle<>> scratch_; //!< see notifyAll()
};

/**
 * Address-range condition: each waiter names the half-open byte range
 * [lo, hi) it is polling; notifyRange(lo, hi) wakes only the waiters
 * whose range overlaps the notified span, in the order they began
 * waiting. This is the wait-on-address primitive behind Memory's write
 * watchpoints: a store wakes the tasks polling those bytes instead of
 * broadcasting to every poller on the node. Like Condition, there is no
 * predicate tracking — waiters re-check after every wakeup.
 */
class AddrCondition
{
  public:
    explicit AddrCondition(EventQueue &queue) : queue_(queue) {}

    struct WaitAwaiter
    {
        AddrCondition &cond;
        std::uint64_t lo;
        std::uint64_t hi;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            cond.waiters_.push_back({h, lo, hi});
        }

        void await_resume() const noexcept {}
    };

    /** Suspend until a notifyRange() overlapping [lo, hi) arrives. */
    WaitAwaiter
    wait(std::uint64_t lo, std::uint64_t hi)
    {
        return WaitAwaiter{*this, lo, hi};
    }

    /** Wake every waiter whose range overlaps [lo, hi); they resume at
     *  the current tick in the order they began waiting. */
    void notifyRange(std::uint64_t lo, std::uint64_t hi);

    bool hasWaiters() const { return !waiters_.empty(); }
    std::size_t numWaiters() const { return waiters_.size(); }

  private:
    struct Waiter
    {
        std::coroutine_handle<> h;
        std::uint64_t lo;
        std::uint64_t hi;
    };

    EventQueue &queue_;
    std::vector<Waiter> waiters_;
};

/**
 * Ledger: a resource held in FIFO order for spans of simulated time —
 * a node's CPU, a bus, a mesh link. claim() takes an idle resource at
 * once; on a busy one it parks the claimant's Waiter, a node embedded
 * in whatever waits (a Hold awaiter in a coroutine frame, a mesh
 * flight), so no path allocates. release() hands the resource to the
 * oldest waiter by scheduling a zero-delay event that runs its grant,
 * before the releasing code continues; with no waiter it marks the
 * resource idle.
 */
class Ledger
{
  public:
    /** A parked claim. */
    struct Waiter
    {
        /** Runs at the handoff event; the waiter holds the resource
         *  from then until it calls release(). */
        void (*grant)(Waiter &);
        Waiter *next = nullptr;
    };

    explicit Ledger(EventQueue &queue) : queue_(queue) {}

    Ledger(const Ledger &) = delete;
    Ledger &operator=(const Ledger &) = delete;

    /** Take the resource if it is idle (@return true: the caller holds
     *  it now); otherwise queue @p w behind the earlier waiters. */
    bool
    claim(Waiter &w)
    {
        if (!busy_) {
            busy_ = true;
            return true;
        }
        w.next = nullptr;
        if (tail_)
            tail_->next = &w;
        else
            head_ = &w;
        tail_ = &w;
        return false;
    }

    /** Hand the resource to the oldest waiter, or mark it idle. */
    void release();

    EventQueue &queue() const { return queue_; }

  private:
    EventQueue &queue_;
    Waiter *head_ = nullptr;
    Waiter *tail_ = nullptr;
    bool busy_ = false;
};

/**
 * Hold<Derived>: awaiter that holds a Ledger for one span of simulated
 * time, with no coroutine frame — the body of Cpu::use and
 * Bus::transfer. await_suspend() claims the ledger or parks in its
 * FIFO. At the grant Derived::begin() runs and returns the span; at the
 * span's end one event runs Derived::end(), releases the ledger (so the
 * handoff to the next waiter is queued first) and resumes the awaiting
 * coroutine. A claim of an idle ledger whose end event would run next
 * anyway (EventQueue::tryAdvance) instead runs end() and the release in
 * place at the span's end and does not suspend; a grant from the wait
 * list always schedules. The awaiter lives in the awaiting coroutine's
 * frame, and the ledger and the event queue hold its address while
 * that coroutine is suspended, so it can be neither copied nor moved.
 */
template <typename Derived>
class Hold : Ledger::Waiter
{
  public:
    Hold(const Hold &) = delete;
    Hold(Hold &&) = delete;
    Hold &operator=(const Hold &) = delete;
    Hold &operator=(Hold &&) = delete;

    bool await_ready() const noexcept { return false; }

    /** @return false when the span ran in place: no suspension. */
    bool
    await_suspend(std::coroutine_handle<> h)
    {
        awaiting_ = h;
        if (!ledger_.claim(*this))
            return true;
        const Tick span = derived().begin();
        if (!ledger_.queue().tryAdvance(span)) {
            scheduleEnd(span);
            return true;
        }
        derived().end();
        ledger_.release();
        return false;
    }

    void await_resume() const noexcept {}

  protected:
    explicit Hold(Ledger &ledger) : Waiter{&granted}, ledger_(ledger) {}

  private:
    Derived &derived() { return static_cast<Derived &>(*this); }

    static void
    granted(Ledger::Waiter &w)
    {
        Hold &hold = static_cast<Hold &>(w);
        hold.scheduleEnd(hold.derived().begin());
    }

    void
    scheduleEnd(Tick span)
    {
        ledger_.queue().scheduleIn(span, [this] { finish(); });
    }

    void
    finish()
    {
        derived().end();
        ledger_.release();
        detail::resumeInTail(ledger_.queue(), awaiting_);
    }

    Ledger &ledger_;
    std::coroutine_handle<> awaiting_;
};

/**
 * Typed FIFO message queue. recv() is a frame-free awaiter: it takes a
 * queued item without suspending. On an empty queue the receiver
 * parks, and send() hands its item straight to the oldest parked
 * receiver with one zero-delay resume, so a receiver never wakes to
 * find the queue empty.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(EventQueue &queue) : queue_(queue) {}

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Awaiter for recv(); parked in the channel by address, so it can
     *  be neither copied nor moved. */
    class [[nodiscard]] RecvAwaiter
    {
      public:
        explicit RecvAwaiter(Channel &ch) : ch_(ch) {}

        RecvAwaiter(const RecvAwaiter &) = delete;
        RecvAwaiter(RecvAwaiter &&) = delete;
        RecvAwaiter &operator=(const RecvAwaiter &) = delete;
        RecvAwaiter &operator=(RecvAwaiter &&) = delete;

        bool await_ready() const noexcept { return !ch_.items_.empty(); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            awaiting_ = h;
            if (ch_.tail_)
                ch_.tail_->next_ = this;
            else
                ch_.head_ = this;
            ch_.tail_ = this;
        }

        T
        await_resume()
        {
            if (item_)
                return std::move(*item_);
            T item = std::move(ch_.items_.front());
            ch_.items_.pop_front();
            return item;
        }

      private:
        friend class Channel;

        Channel &ch_;
        RecvAwaiter *next_ = nullptr;
        std::coroutine_handle<> awaiting_;
        std::optional<T> item_; //!< handed over by send() while parked
    };

    /** Hand @p item to the oldest parked receiver, or queue it. */
    void
    send(T item)
    {
        RecvAwaiter *w = head_;
        if (!w) {
            items_.push_back(std::move(item));
            return;
        }
        head_ = w->next_;
        if (!head_)
            tail_ = nullptr;
        w->item_.emplace(std::move(item));
        detail::resumeSoon(queue_, w->awaiting_);
    }

    /** Take the oldest item, waiting for one if the queue is empty. */
    RecvAwaiter recv() { return RecvAwaiter(*this); }

    /** Items queued and not yet handed to a receiver. */
    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

  private:
    EventQueue &queue_;
    std::deque<T> items_;
    RecvAwaiter *head_ = nullptr; //!< parked receivers, oldest first
    RecvAwaiter *tail_ = nullptr;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_SYNC_HH
