#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "base/logging.hh"
#include "base/trace.hh"
#include "check/check.hh"
#include "check/race.hh"
#include "sim/profile.hh"
#include "sim/simulator.hh"

namespace shrimp::sim
{

EventQueue *detail::gTailQueue = nullptr;

EventQueue::EventQueue() : process_(trace::Tracer::instance().newProcess())
{
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onQueueCreated(this));
}

EventQueue::~EventQueue()
{
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onQueueDestroyed(this));
    // Destroy the callables of events that never ran (a deadlocked or
    // abandoned simulation); the pool blocks free themselves.
    while (EventNode *n = popEarliest()) {
        if (n->destroy)
            n->destroy(*n);
    }
}

EventQueue::EventNode *
EventQueue::allocNode()
{
    if (freeList_) {
        EventNode *n = freeList_;
        freeList_ = n->next;
        return n;
    }
    auto block = std::make_unique<EventNode[]>(nodesPerBlock);
    nodesAllocated_ += nodesPerBlock;
    // Node 0 is returned; the rest seed the free list.
    for (std::size_t i = nodesPerBlock - 1; i >= 1; --i) {
        block[i].next = freeList_;
        freeList_ = &block[i];
    }
    EventNode *n = &block[0];
    blocks_.push_back(std::move(block));
    return n;
}

void
EventQueue::freeNode(EventNode *n)
{
    n->next = freeList_;
    freeList_ = n;
}

EventQueue::EventNode *
EventQueue::prepare(Tick when)
{
    if (when < now_) {
        std::string msg = logging::format(
            "event scheduled in the past: when=%llu ns < now=%llu ns "
            "(would have been seq %llu; %zu event(s) pending)",
            (unsigned long long)when, (unsigned long long)now_,
            (unsigned long long)nextSeq_, size_);
        SHRIMP_CHECK_HOOK(
            msg += "; " +
                   check::SimChecker::instance().describeActiveTasks());
        panic(msg);
    }
    EventNode *n = allocNode();
    n->when = when;
    n->seq = nextSeq_++;
    n->next = nullptr;
    // Tag inheritance: the event belongs to whatever subsystem is
    // scheduling right now (set by the dispatcher below, refined by
    // profile::retag/Scope at component sites). Tags are only consumed
    // while timing, so the off path pays one predictable branch.
    n->subsys =
        profile::detail::gTiming ? profile::detail::gCurrent : 0;
    return n;
}

void
EventQueue::file(EventNode *n, int b)
{
    Bucket &bk = buckets_[b];
    if (bk.head) {
        bk.tail->next = n;
        bk.min = std::min(bk.min, n->when);
    } else {
        bk.head = n;
        bk.min = n->when;
    }
    bk.tail = n;
    if (b != 0)
        occupied_ |= std::uint64_t(1) << (b - 1);
}

void
EventQueue::refile(int b)
{
    occupied_ &= occupied_ - 1;
    EventNode *n = buckets_[b].head;
    buckets_[b].head = nullptr;
    while (n) {
        EventNode *next = n->next;
        n->next = nullptr;
        const int to = std::bit_width(n->when ^ now_);
        SHRIMP_CHECK_HOOK(
            if (to >= b) check::SimChecker::instance().report(
                logging::format("event queue re-filed seq %llu (when=%llu "
                                "ns) from bucket %d into bucket %d at "
                                "now=%llu ns",
                                (unsigned long long)n->seq,
                                (unsigned long long)n->when, b, to,
                                (unsigned long long)now_)));
        file(n, to);
        n = next;
    }
}

void
EventQueue::enqueue(EventNode *n)
{
    ++size_;
    file(n, std::bit_width(n->when ^ now_));
}

bool
EventQueue::unlink(EventNode *n)
{
    // A pending node sits in bucket bit_width(when ^ now_): filing puts
    // it there, and a pop or an advance re-files exactly the nodes
    // whose bucket the move of now_ changes.
    const int b = std::bit_width(n->when ^ now_);
    Bucket &bk = buckets_[b];
    EventNode *prev = nullptr;
    bool found = false;
    Tick min = maxTick;
    for (EventNode *e = bk.head, *before = nullptr; e;
         before = e, e = e->next) {
        if (e == n) {
            prev = before;
            found = true;
        } else {
            min = std::min(min, e->when);
        }
    }
    if (!found)
        return false;
    (prev ? prev->next : bk.head) = n->next;
    if (bk.tail == n)
        bk.tail = prev;
    if (bk.head)
        bk.min = min;
    else if (b != 0)
        occupied_ &= ~(std::uint64_t(1) << (b - 1));
    return true;
}

void
EventQueue::cancel(Handle h)
{
    EventNode *n = h.node_;
    // A node that ran is free or recycled: a recycled one carries a
    // later seq, and a free one (or the running one) is in no bucket.
    if (!n || n->seq != h.seq_ || !unlink(n))
        panic(logging::format(
            "cancel of an event that is not pending (seq %llu) at "
            "now=%llu ns: it already ran, or the handle names none",
            (unsigned long long)h.seq_, (unsigned long long)now_));
    if (n->destroy)
        n->destroy(*n);
    freeNode(n);
    --size_;
}

EventQueue::EventNode *
EventQueue::popEarliest()
{
    Bucket &cur = buckets_[0];
    if (!cur.head) {
        if (!occupied_)
            return nullptr;
        // Drain the lowest non-empty bucket: its minimum becomes now_,
        // and every node re-files, in FIFO order, into a lower (empty)
        // bucket against the new base. Higher buckets stay valid.
        const int b = std::countr_zero(occupied_) + 1;
        now_ = buckets_[b].min;
        refile(b);
    }
    EventNode *n = cur.head;
    cur.head = n->next;
    --size_;
    return n;
}

bool
EventQueue::runOne()
{
    [[maybe_unused]] const Tick prev = now_;
    EventNode *n = popEarliest();
    if (!n) {
        if (size_ != 0)
            panic(logging::format(
                "event queue lost track of %zu pending event(s): every "
                "bucket is empty at now=%llu ns",
                size_, (unsigned long long)now_));
        return false;
    }
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onEventRun(
        this, n->when, n->seq, prev));
    // The callable runs with its node already unlinked, so it may
    // schedule freely (including for the current tick). Destruction and
    // pool release happen even if it throws (checker errors propagate).
    struct Release
    {
        EventQueue &q;
        EventNode *n;
        ~Release()
        {
            if (n->destroy)
                n->destroy(*n);
            q.freeNode(n);
        }
    } release{*this, n};
    if (profile::detail::gTiming) {
        // Events scheduled by this callable inherit its subsystem tag.
        profile::detail::gCurrent = n->subsys;
        const std::uint64_t t0 = profile::hostNow();
        n->invoke(*n);
        // Attribute to the *post*-invoke tag: a coroutine that retags
        // at its resume point claims the whole dispatch.
        profile::recordDispatch(profile::current(),
                                profile::hostNow() - t0);
    } else {
        n->invoke(*n);
    }
    // Counter tracks: sample on the first event at or after each period
    // of this queue's own clock, so every machine starts at its tick 0.
    if (trace::sampling() && now_ >= nextSample_)
        sample(size_);
    return true;
}

void
EventQueue::sample(std::size_t pending)
{
    trace::Tracer::instance().sampleCounters(now_, pending);
    if (profile::timing())
        profile::sample(now_);
    nextSample_ = now_ + trace::samplePeriod;
}

void
EventQueue::advanceTo(Tick target)
{
    --advanceBudget_;
    ++advancedInPlace_;
    // The sample runOne() would take as the running event returned,
    // with the skipped event still pending.
    if (trace::sampling() && now_ >= nextSample_)
        sample(size_ + 1);
    // Every pending `when` exceeds target, so target agrees with now_
    // on every bit above the lowest occupied bucket's bit b-1. If it
    // sets that bit, bucket b re-files into lower buckets, as a pop
    // drains it; otherwise no node's bucket changes. Higher buckets
    // stay valid either way.
    const int moved = std::bit_width(std::exchange(now_, target) ^ target);
    if (occupied_) {
        const int b = std::countr_zero(occupied_) + 1;
        if (moved == b)
            refile(b);
    }
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    trace::setProcess(process_);
    std::uint64_t n = 0;
    for (;;) {
        // The popped event counts first; advances spend the rest, so
        // the event past max_events is always scheduled and popped.
        const std::uint64_t budget = n < max_events ? max_events - n - 1 : 0;
        advanceBudget_ = budget;
        if (!runOne()) {
            if (trace::sampling() && profile::timing())
                profile::sample(now_);
            return n;
        }
        n += 1 + (budget - advanceBudget_);
        if (n > max_events)
            panic("event limit exceeded; runaway simulation?");
    }
}

Simulator::~Simulator()
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onSimulatorDestroyed(this));
    // Reclaim wrappers that never completed (deadlocked or abandoned
    // simulations), oldest first. destroy() unlinks each frame via
    // ~promise_type.
    while (liveHead_) {
        std::coroutine_handle<Detached::promise_type>::from_promise(
            *liveHead_).destroy();
    }
}

void
Simulator::spawn(Task<> task)
{
    spawn(std::move(task), "task");
}

void
Simulator::spawn(Task<> task, std::string name)
{
    detail::EagerStart eager;
    trace::setProcess(queue_.process()); // its first steps run here
    runDetached(std::move(task), std::move(name));
}

Simulator::Detached
Simulator::runDetached(Task<> task, std::string name)
{
    ++active_;
    [[maybe_unused]] std::uint64_t check_id = 0;
    SHRIMP_CHECK_HOOK(check_id = check::SimChecker::instance().onTaskSpawn(
        this, name, queue_.now()));
    try {
        co_await std::move(task);
    } catch (...) {
        // Never swallow silently: report which task failed and when, so
        // checker failures surface even if the first error wins.
        std::exception_ptr err = std::current_exception();
        std::string what = "unknown exception";
        try {
            std::rethrow_exception(err);
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        if (!firstError_) {
            warn(logging::format(
                "task '%s' failed at %llu ns: %s (rethrown from "
                "Simulator::run)", name.c_str(),
                (unsigned long long)queue_.now(), what.c_str()));
            firstError_ = err;
        } else {
            warn(logging::format(
                "task '%s' also failed at %llu ns: %s (suppressed; the "
                "first error is rethrown)", name.c_str(),
                (unsigned long long)queue_.now(), what.c_str()));
        }
    }
    --active_;
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onTaskExit(check_id));
}

void
Simulator::spawnDaemon(Task<> task)
{
    daemons_.push_back(std::move(task));
    trace::setProcess(queue_.process());
    daemons_.back().start(); // eager, so start() clears the tail queue
}

std::uint64_t
Simulator::run(std::uint64_t max_events)
{
    std::uint64_t n = queue_.run(max_events);
    if (firstError_) {
        auto err = std::exchange(firstError_, nullptr);
        std::rethrow_exception(err);
    }
    for (const auto &d : daemons_) {
        if (auto err = d.error())
            std::rethrow_exception(err);
    }
    // The queue drained cleanly: every in-flight DMA, snoop and bus
    // transaction has completed, so all race-detector actors are
    // genuinely ordered with whatever runs next (post-run inspection,
    // next phase of a benchmark).
    if (queue_.empty())
        SHRIMP_CHECK_HOOK(check::RaceDetector::instance().fenceAll());
    return n;
}

std::uint64_t
Simulator::runAll(std::uint64_t max_events)
{
    std::uint64_t n = run(max_events);
    if (active_ != 0) {
        std::string msg = "simulation deadlock: " +
                          std::to_string(active_) +
                          " task(s) never completed";
        SHRIMP_CHECK_HOOK(
            msg += "; " +
                   check::SimChecker::instance().describeActiveTasks(this));
        panic(msg);
    }
    return n;
}

} // namespace shrimp::sim
