#include "sim/sync.hh"

#include "check/check.hh"

namespace shrimp::sim
{

namespace detail
{

void
resumeSoon(EventQueue &queue, std::coroutine_handle<> h)
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onResumeScheduled(h.address()));
    queue.scheduleIn(0, [h, q = &queue] {
        SHRIMP_CHECK_HOOK(
            check::SimChecker::instance().onResumeFired(h.address()));
        resumeInTail(*q, h);
    });
}

} // namespace detail

void
Condition::notifyAll()
{
    // Move the list out first: a woken task may wait() again immediately
    // and must not be re-woken by this notification. Swapping with the
    // member scratch buffer (instead of a fresh vector) ping-pongs the
    // two allocations forever instead of reallocating per notify.
    scratch_.clear();
    scratch_.swap(waiters_);
    for (auto h : scratch_)
        detail::resumeSoon(queue_, h);
}

void
AddrCondition::notifyRange(std::uint64_t lo, std::uint64_t hi)
{
    // Resumes are deferred through the event queue, so the list cannot
    // be mutated while we scan it; compact non-overlapping waiters in
    // place to keep their relative (FIFO) order.
    std::size_t kept = 0;
    for (const Waiter &w : waiters_) {
        if (w.lo < hi && lo < w.hi)
            detail::resumeSoon(queue_, w.h);
        else
            waiters_[kept++] = w;
    }
    waiters_.resize(kept);
}

void
Ledger::release()
{
    Waiter *w = head_;
    if (!w) {
        busy_ = false;
        return;
    }
    head_ = w->next;
    if (!head_)
        tail_ = nullptr;
    // The resource passes straight to the waiter: it stays busy. The
    // checker keys the pending grant by the waiter node, as it keys a
    // pending resume by the coroutine frame.
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onResumeScheduled(w));
    queue_.scheduleIn(0, [w] {
        SHRIMP_CHECK_HOOK(check::SimChecker::instance().onResumeFired(w));
        w->grant(*w);
    });
}

} // namespace shrimp::sim
