/**
 * @file
 * Task<T>: a lazy coroutine type used for every simulated activity.
 *
 * A Task does not start until it is co_awaited (or spawned on a
 * Simulator). Completion resumes the awaiting coroutine via symmetric
 * transfer; exceptions propagate through co_await. Simulated "processes"
 * are coroutines returning Task<> that suspend on awaitables which
 * re-schedule them through the EventQueue.
 */

#ifndef SHRIMP_SIM_TASK_HH
#define SHRIMP_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <utility>

#include "base/logging.hh"
#include "sim/event_queue.hh"

namespace shrimp::sim
{

template <typename T = void>
class Task;

namespace detail
{

/**
 * FrameArena: recycles coroutine frames through size-class free lists.
 *
 * Every simulated activity is a coroutine, so a single message transfer
 * allocates dozens of short-lived frames; routing them through the
 * global allocator dominated the host profile. The arena rounds frame
 * sizes up to a 64-byte granule and keeps one intrusive free list per
 * class: after warm-up, frame allocation is a pointer pop. Frames
 * larger than maxBytes (none today) fall through to operator new.
 *
 * The lists are thread_local rather than per-EventQueue: a frame can
 * outlive the simulator that created it (a Task held by a test, the
 * leaked-frame sweep in ~Simulator), but the simulator is strictly
 * single-threaded, so thread scope is the tightest granularity that is
 * always safe — no lock, and alloc/free always hit the same list.
 */
class FrameArena
{
  public:
    static constexpr std::size_t granule = 64;
    static constexpr std::size_t maxBytes = 2048;

    static void *allocate(std::size_t bytes);
    static void deallocate(void *p, std::size_t bytes) noexcept;

    struct Stats
    {
        std::uint64_t carved = 0;  //!< frames taken from the host heap
        std::uint64_t reused = 0;  //!< frames served from a free list
        std::uint64_t oversize = 0; //!< frames beyond maxBytes
    };
    static Stats stats();

  private:
    static constexpr std::size_t numClasses = maxBytes / granule;
    friend struct FrameArenaState;
};

/** Recyclable-frame base: a coroutine promise deriving from this
 *  allocates its frame from the FrameArena (sized delete returns it). */
struct RecycledFrame
{
    static void *
    operator new(std::size_t bytes)
    {
        return FrameArena::allocate(bytes);
    }

    static void
    operator delete(void *p, std::size_t bytes) noexcept
    {
        FrameArena::deallocate(p, bytes);
    }
};

struct TaskPromiseBase : RecycledFrame
{
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() const noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise : TaskPromiseBase
{
    T value;

    Task<T> get_return_object();
    void return_value(T v) { value = std::move(v); }

    T
    result()
    {
        if (exception)
            std::rethrow_exception(exception);
        return std::move(value);
    }
};

template <>
struct TaskPromise<void> : TaskPromiseBase
{
    Task<void> get_return_object();
    void return_void() {}

    void
    result()
    {
        if (exception)
            std::rethrow_exception(exception);
    }
};

} // namespace detail

/**
 * Lazy coroutine task. Move-only; the Task object owns the coroutine
 * frame and destroys it when the Task goes out of scope (by which time
 * the coroutine has finished, because co_await only returns after the
 * child's final suspend).
 */
template <typename T>
class [[nodiscard]] Task
{
  public:
    using promise_type = detail::TaskPromise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return handle_ && handle_.done(); }

    struct Awaiter
    {
        Handle handle;

        bool await_ready() const noexcept { return !handle || handle.done(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> awaiting) noexcept
        {
            handle.promise().continuation = awaiting;
            return handle;
        }

        T await_resume() { return handle.promise().result(); }
    };

    Awaiter operator co_await() const & noexcept { return Awaiter{handle_}; }
    Awaiter operator co_await() && noexcept { return Awaiter{handle_}; }

    /** Release ownership of the coroutine frame (used by spawn). */
    Handle release() { return std::exchange(handle_, nullptr); }

    /**
     * Start the task without awaiting it (daemon-style). The Task object
     * must be kept alive; it still owns the frame. Any exception is
     * stored and can be inspected with error().
     */
    void
    start()
    {
        if (!handle_ || handle_.done())
            panic("start() on an invalid or finished task");
        detail::EagerStart eager;
        handle_.resume();
    }

    /** Exception raised by a completed/started task, if any. */
    std::exception_ptr
    error() const
    {
        return handle_ ? handle_.promise().exception : nullptr;
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

namespace detail
{

template <typename T>
Task<T>
TaskPromise<T>::get_return_object()
{
    return Task<T>(
        std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void>
TaskPromise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

} // namespace detail

} // namespace shrimp::sim

#endif // SHRIMP_SIM_TASK_HH
