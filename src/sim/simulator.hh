/**
 * @file
 * Simulator: an EventQueue plus detached-task management. Top-level
 * simulated processes are spawned here; run() drives the event loop and
 * rethrows the first exception raised by any spawned task so tests see
 * protocol failures.
 */

#ifndef SHRIMP_SIM_SIMULATOR_HH
#define SHRIMP_SIM_SIMULATOR_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace shrimp::sim
{

class Simulator
{
  public:
    Simulator() = default;

    /** Destroys the frames of detached tasks that never completed
     *  (deadlocked simulations would otherwise leak them), in spawn
     *  order. */
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    EventQueue &queue() { return queue_; }
    Tick now() const { return queue_.now(); }

    /**
     * Start @p task as a detached top-level activity. The task begins
     * running immediately (until its first suspension) and is destroyed
     * automatically when it completes. @p name labels the task in
     * deadlock reports and exception logs.
     */
    void spawn(Task<> task);
    void spawn(Task<> task, std::string name);

    /**
     * Drive the event loop until it drains, then rethrow the first
     * exception any spawned task raised.
     * @return number of events processed.
     */
    std::uint64_t run(std::uint64_t max_events = EventQueue::defaultMaxEvents);

    /** Spawned tasks that have not yet completed. After run() returns,
     *  a nonzero value means those tasks are deadlocked. */
    std::size_t activeTasks() const { return active_; }

    /** run(), then panic if any task never completed (deadlock). */
    std::uint64_t runAll(std::uint64_t max_events =
                         EventQueue::defaultMaxEvents);

    /**
     * Start @p task as a daemon: a service loop that typically never
     * completes (NIC pumps, SHRIMP daemons, servers). Daemons are not
     * counted by activeTasks(), so a drained event queue with only
     * blocked daemons is a normal end of simulation, not a deadlock.
     * Exceptions raised by daemons are rethrown from run().
     */
    void spawnDaemon(Task<> task);

  private:
    struct Detached
    {
        // The wrapper's own frame recycles through the arena too — one
        // is created per spawn, which the benches do in their loops.
        struct promise_type : detail::RecycledFrame
        {
            Simulator &sim;
            /** Neighbours in the simulator's list of live wrappers,
             *  which runs in spawn order. */
            promise_type *prev = nullptr;
            promise_type *next = nullptr;

            /** Mirrors runDetached()'s parameter list (the implicit
             *  object parameter first), per the coroutine promise
             *  constructor rules. */
            promise_type(Simulator &s, Task<> &, std::string &) : sim(s) {}

            ~promise_type()
            {
                (prev ? prev->next : sim.liveHead_) = next;
                (next ? next->prev : sim.liveTail_) = prev;
            }

            Detached
            get_return_object()
            {
                // Track the live frame so ~Simulator can reclaim it if
                // the task never finishes (see runDetached()).
                prev = sim.liveTail_;
                (prev ? prev->next : sim.liveHead_) = this;
                sim.liveTail_ = this;
                return {};
            }

            std::suspend_never initial_suspend() const noexcept { return {}; }
            std::suspend_never final_suspend() const noexcept { return {}; }
            void return_void() {}
            /** A Detached wrapper already catches everything; anything
             *  reaching here is unrecoverable. */
            void unhandled_exception() { std::terminate(); }
        };
    };

    Detached runDetached(Task<> task, std::string name);

    EventQueue queue_;
    std::size_t active_ = 0;
    std::exception_ptr firstError_;
    std::vector<Task<>> daemons_;

    /** Detached wrappers still suspended, oldest first, linked through
     *  their promises; owned for cleanup only (frames normally free
     *  themselves at completion). */
    Detached::promise_type *liveHead_ = nullptr;
    Detached::promise_type *liveTail_ = nullptr;
};

/** Awaitable: suspend the current task for @p delay ticks. When the
 *  wake-up event would run next anyway, the task instead goes on in
 *  place at the later tick (EventQueue::tryAdvance). */
struct Delay
{
    EventQueue &queue;
    Tick delay;

    bool await_ready() const noexcept { return false; }

    bool
    await_suspend(std::coroutine_handle<> h) const
    {
        if (queue.tryAdvance(delay))
            return false;
        queue.scheduleIn(delay, [h, q = &queue] {
            detail::resumeInTail(*q, h);
        });
        return true;
    }

    void await_resume() const noexcept {}
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_SIMULATOR_HH
