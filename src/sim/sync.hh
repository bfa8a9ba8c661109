/**
 * @file
 * Synchronization primitives for simulated software threads.
 *
 * All wake-ups route through the EventQueue (at the current tick) rather
 * than resuming coroutines inline. This bounds native stack depth and keeps
 * the global event order the single source of truth.
 */

#ifndef SONUMA_SIM_SYNC_HH
#define SONUMA_SIM_SYNC_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace sonuma::sim {

/**
 * One-shot broadcast event: tasks co_await it; set() wakes all waiters.
 * Awaiting an already-set event does not suspend.
 */
class OneShotEvent
{
  public:
    explicit OneShotEvent(EventQueue &eq) : eq_(eq) {}

    /** Fire the event, waking all current and future waiters. */
    void
    set()
    {
        if (set_)
            return;
        set_ = true;
        for (auto h : waiters_)
            eq_.scheduleAfter(0, [h] { h.resume(); }, h.address());
        waiters_.clear();
    }

    struct Awaiter
    {
        OneShotEvent &ev;

        bool await_ready() const noexcept { return ev.set_; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ev.waiters_.push_back(h);
        }

        void await_resume() const noexcept {}
    };

    Awaiter operator co_await() noexcept { return Awaiter{*this}; }

  private:
    EventQueue &eq_;
    std::vector<std::coroutine_handle<>> waiters_;
    bool set_ = false;
};

/**
 * Counting semaphore. Used throughout for credit-based flow control
 * (fabric link credits, WQ slots, messaging-library credits).
 */
class Semaphore
{
  public:
    Semaphore(EventQueue &eq, std::uint64_t initial)
        : eq_(eq), count_(initial)
    {}

    /** Current credit count. */
    std::uint64_t count() const { return count_; }

    /** Number of tasks blocked in acquire(). */
    std::size_t waiters() const { return waiters_.size(); }

    /** Release one credit, waking the oldest waiter if any. */
    void
    release(std::uint64_t n = 1)
    {
        count_ += n;
        while (count_ > 0 && !waiters_.empty()) {
            --count_;
            auto h = waiters_.popFront();
            eq_.scheduleAfter(0, [h] { h.resume(); }, h.address());
        }
    }

    /** Non-blocking acquire. @retval true if a credit was taken. */
    bool
    tryAcquire()
    {
        if (count_ == 0)
            return false;
        --count_;
        return true;
    }

    /**
     * Awaitable acquire of one credit. FIFO-fair: if tasks are already
     * queued, new arrivals go to the back even when credits are available.
     *
     * Usage: `co_await sem.acquire();`
     */
    auto
    acquire()
    {
        struct AcquireAwaiter
        {
            Semaphore &sem;

            bool
            await_ready() noexcept
            {
                if (sem.waiters_.empty() && sem.count_ > 0) {
                    --sem.count_;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem.waiters_.push(h);
            }

            void await_resume() const noexcept {}
        };
        return AcquireAwaiter{*this};
    }

  private:
    EventQueue &eq_;
    std::uint64_t count_;
    // Ring, not deque: a deque churns 512-byte map nodes as waiters
    // cycle through it, which shows up under the alloc-counting hook.
    RingBuffer<std::coroutine_handle<>> waiters_;
};

/**
 * Re-triggerable condition: tasks wait; notifyAll() wakes every current
 * waiter (they must re-check their predicate). This is the building block
 * for polling loops that should not spin at zero-cost.
 */
class Condition
{
  public:
    explicit Condition(EventQueue &eq) : eq_(eq) {}

    void
    notifyAll()
    {
        for (auto h : waiters_)
            eq_.scheduleAfter(0, [h] { h.resume(); }, h.address());
        waiters_.clear();
    }

    std::size_t waiters() const { return waiters_.size(); }

    auto
    wait()
    {
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
        return WaitAwaiter{*this};
    }

  private:
    EventQueue &eq_;
    std::vector<std::coroutine_handle<>> waiters_;
};

/**
 * Intra-node barrier for tasks sharing one coherent node (pthread-style).
 * Reusable across episodes.
 */
class LocalBarrier
{
  public:
    LocalBarrier(EventQueue &eq, std::size_t parties)
        : cond_(eq), parties_(parties)
    {}

    /** Coroutine: resumes once all parties arrived. */
    Task
    arrive()
    {
        const std::uint64_t myGen = generation_;
        if (++waiting_ == parties_) {
            waiting_ = 0;
            ++generation_;
            cond_.notifyAll();
            co_return;
        }
        while (generation_ == myGen)
            co_await cond_.wait();
    }

    std::uint64_t generation() const { return generation_; }

  private:
    Condition cond_;
    std::size_t parties_;
    std::size_t waiting_ = 0;
    std::uint64_t generation_ = 0;
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_SYNC_HH
