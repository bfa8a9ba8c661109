/**
 * @file
 * Coroutine tasks for simulated software threads.
 *
 * Application code (the paper's Fig. 4 style) runs as C++20 coroutines.
 * A Task is lazy: it starts when first resumed, either by `co_await`ing it
 * from another task or by Simulation::spawn(). All time-based suspensions
 * resume through the EventQueue, so software and hardware share one global
 * deterministic ordering.
 */

#ifndef SONUMA_SIM_TASK_HH
#define SONUMA_SIM_TASK_HH

#include <cassert>
#include <coroutine>
#include <cstdlib>
#include <exception>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/types.hh"

namespace sonuma::sim {

namespace detail {

/** The promise's return half: keep the returned T (nothing for void). */
template <typename T>
struct TaskReturn
{
    T value{};

    void
    return_value(T v) noexcept
    {
        value = std::move(v);
    }
};

template <>
struct TaskReturn<void>
{
    void return_void() noexcept {}
};

} // namespace detail

/**
 * A lazily-started coroutine representing a simulated software thread
 * (or a sub-routine of one) that returns a T, or nothing.
 *
 * Tasks are move-only and own their (pooled) coroutine frame.
 * `co_await task` runs the child to completion (in simulated time),
 * then resumes the parent via symmetric transfer with the returned
 * value; exceptions propagate to the awaiter. The access library's
 * awaitable operations are value tasks:
 * `OpResult r = co_await session.read(...)`.
 */
template <typename T>
class BasicTask
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type : PooledFrame, detail::TaskReturn<T>
    {
        std::coroutine_handle<> continuation;
        std::exception_ptr exception;

        BasicTask
        get_return_object()
        {
            return BasicTask(Handle::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                auto &p = h.promise();
                return p.continuation ? p.continuation
                                      : std::coroutine_handle<>(
                                            std::noop_coroutine());
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void
        unhandled_exception() noexcept
        {
            exception = std::current_exception();
        }
    };

    BasicTask() = default;
    explicit BasicTask(Handle h) : handle_(h) {}

    BasicTask(BasicTask &&o) noexcept
        : handle_(std::exchange(o.handle_, nullptr))
    {}

    BasicTask &
    operator=(BasicTask &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    BasicTask(const BasicTask &) = delete;
    BasicTask &operator=(const BasicTask &) = delete;

    ~BasicTask() { destroy(); }

    /** True if this task holds a coroutine frame. */
    bool valid() const { return static_cast<bool>(handle_); }

    /** True once the coroutine ran to completion. */
    bool done() const { return handle_ && handle_.done(); }

    /** Awaiter for `co_await task`: start child, resume parent when done. */
    struct JoinAwaiter
    {
        Handle handle;

        bool await_ready() const noexcept { return !handle || handle.done(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) noexcept
        {
            handle.promise().continuation = parent;
            return handle; // symmetric transfer: start the child now
        }

        T
        await_resume() const
        {
            if (handle && handle.promise().exception)
                std::rethrow_exception(handle.promise().exception);
            if constexpr (!std::is_void_v<T>)
                return std::move(handle.promise().value);
        }
    };

    JoinAwaiter operator co_await() const noexcept { return {handle_}; }

    /**
     * Release ownership of the frame (used by Simulation::spawn, which
     * manages root-task lifetime itself).
     */
    Handle
    release()
    {
        return std::exchange(handle_, nullptr);
    }

  private:
    Handle handle_;

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }
};

using Task = BasicTask<void>;

template <typename T>
using ValueTask = BasicTask<T>;

/**
 * Awaitable result of a step whose common path does not suspend.
 *
 * The step runs its fast path inline when it is called and returns a
 * default Step, which `co_await` passes without suspending and without
 * a coroutine frame. Only when the step must wait does it return a
 * Step holding a Task with the waiting tail, which `co_await` joins
 * exactly like the Task itself. The rule and its reasons are in
 * src/sim/README.md.
 */
class [[nodiscard]] Step
{
  public:
    /** The step already completed inline. */
    Step() = default;

    /** The step continues in @p tail. */
    explicit Step(Task tail) : tail_(std::move(tail)) {}

    bool await_ready() const noexcept { return !tail_.valid(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> parent) noexcept
    {
        return tail_.operator co_await().await_suspend(parent);
    }

    void await_resume() const { tail_.operator co_await().await_resume(); }

  private:
    Task tail_;
};

/**
 * An eagerly-started, self-destroying coroutine for hardware transactions
 * (e.g., one in-flight RMC request). Runs synchronously until its first
 * suspension; the frame frees itself at completion, so millions of
 * transactions do not accumulate. Exceptions escaping one of these are
 * simulator bugs and abort.
 */
struct FireAndForget
{
    struct promise_type : PooledFrame
    {
        FireAndForget get_return_object() noexcept { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() noexcept {}
        [[noreturn]] void unhandled_exception() noexcept { std::abort(); }
    };
};

/** Awaitable that suspends a task for a fixed amount of simulated time. */
class Delay
{
  public:
    Delay(EventQueue &eq, Tick d) : eq_(eq), delay_(d) {}

    bool await_ready() const noexcept { return delay_ == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq_.scheduleAfter(delay_, [h] { h.resume(); }, h.address());
    }

    void await_resume() const noexcept {}

  private:
    EventQueue &eq_;
    Tick delay_;
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_TASK_HH
