/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Single-threaded binary-heap event queue. Events scheduled for the same
 * tick fire in scheduling order (a monotonic sequence number breaks ties),
 * which makes runs bit-reproducible for a given seed and workload.
 *
 * Zero-allocation design: callbacks are sim::Callback (32 B, captures
 * stored inline) constructed directly in their slot of a
 * generation-tagged slot table recycled through a freelist. The heap
 * holds plain 24-byte {tick, seq, slot, gen} records ordered by
 * (tick, seq). cancel() is an O(1) slot lookup that empties the slot
 * eagerly; the heap record is tombstoned by its stale generation and
 * dropped lazily when it surfaces. After warm-up the steady-state
 * schedule / fire / cancel cycle performs no heap allocation at all.
 *
 * The hot methods (schedule, step, cancel) are defined inline in this
 * header: they sit in the innermost loop of every simulation, and the
 * call out of a separate translation unit costs more than the work.
 *
 * Touch hints: schedule() optionally takes the first host line the
 * event will read (a cache set, a coroutine frame, a link's head
 * packet). step() prefetches the next event's hint before it invokes
 * the current one, so the load that would stall the next event
 * overlaps this one's work. A hint is advisory only: nothing reads it
 * for semantics, a null, stale or freed pointer is harmless (a
 * prefetch never faults), and the firing order is (tick, seq) either
 * way.
 */

#ifndef SONUMA_SIM_EVENT_QUEUE_HH
#define SONUMA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace sonuma::sim {

/** Opaque handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/**
 * The central event queue driving a simulation.
 *
 * All timing models schedule closures here; coroutine awaitables resume
 * through it as well, so there is a single global ordering of actions.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p fn (a Callback or any callable it accepts) to run at
     * absolute time @p when. The callable is built in its event slot.
     * @p touch is the event's touch hint (see the file comment).
     *
     * @pre when >= now()
     * @return an id usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn, const void *touch = nullptr)
    {
        assert(when >= now_ && "cannot schedule into the past");
        const std::uint32_t index = allocSlot();
        Slot &s = slots_[index];
        s.fn = std::forward<F>(fn);
        s.touch = touch;
        assert(s.fn && "cannot schedule an empty closure");
        heap_.push_back(HeapEntry{when, nextSeq_++, index, s.gen});
        std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
        peakLive_ = std::max(peakLive_, ++live_);
        return (static_cast<EventId>(s.gen) << 32) | index;
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleAfter(Tick delay, F &&fn, const void *touch = nullptr)
    {
        return schedule(now_ + delay, std::forward<F>(fn), touch);
    }

    /**
     * Cancel a previously scheduled event. Cancelling an already-fired or
     * already-cancelled event is a harmless no-op. The callback and its
     * captured state are released immediately; only a tombstoned heap
     * record lingers until it surfaces.
     *
     * @retval true if the event was still pending and is now cancelled.
     */
    bool
    cancel(EventId id)
    {
        const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
        const auto gen = static_cast<std::uint32_t>(id >> 32);
        if (index >= slots_.size())
            return false;
        Slot &s = slots_[index];
        if (!s.fn || s.gen != gen)
            return false; // already fired or cancelled
        // Empty the slot right now; the heap record becomes a tombstone
        // identified by its stale generation.
        s.fn.reset();
        ++s.gen;
        freeEventSlots_.push_back(index);
        --live_;
        return true;
    }

    /** Fire exactly one event if any is pending. @retval false if empty. */
    bool
    step()
    {
        if (!liveTop())
            return false;
        const HeapEntry top = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
        heap_.pop_back();
        Slot &s = slots_[top.slot];
        assert(top.tick >= now_);
        now_ = top.tick;
        ++executed_;
        // Move the callback out before invoking: the callback may
        // schedule new events that reuse this very slot.
        Callback fn = std::move(s.fn);
        ++s.gen;
        freeEventSlots_.push_back(top.slot);
        --live_;
        // Start the next event's first load now; a tombstone's hint is
        // stale, which a prefetch tolerates.
        if (!heap_.empty())
            __builtin_prefetch(slots_[heap_.front().slot].touch);
        fn();
        return true;
    }

    /** Run until the queue drains. @return final simulated time. */
    Tick
    run()
    {
        while (step()) {
        }
        return now_;
    }

    /**
     * Run until the queue drains or simulated time would exceed @p limit.
     * Events scheduled at exactly @p limit still fire.
     */
    Tick runUntil(Tick limit);

    /** True if no events are pending. */
    bool empty() const { return live_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingEvents() const { return live_; }

    /** Total events executed so far (for stats / debugging). */
    std::uint64_t executedEvents() const { return executed_; }

    /** Most events ever pending at once (the heap's high-water mark). */
    std::size_t peakPendingEvents() const { return peakLive_; }

    /**
     * Pre-size internal storage for @p events concurrently pending events
     * so the steady state never reallocates (benchmark warm-up hook).
     */
    void reserve(std::size_t events);

    /** Heap records currently tombstoned by cancel() (observability). */
    std::size_t tombstones() const { return heap_.size() - live_; }

  private:
    /** Heap record; (tick, seq) is the firing order. */
    struct HeapEntry
    {
        Tick tick;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };
    static_assert(sizeof(HeapEntry) == 24);

    /**
     * (tick, seq) compared as one 128-bit number: a branch-free
     * compare/subtract-with-borrow. Comparing tick, then seq on a tie,
     * branches unpredictably when many events share a tick; it halved
     * bench_sim_core's event rate.
     */
    struct HeapLater
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            using U128 = unsigned __int128;
            return ((U128(a.tick) << 64) | a.seq) >
                   ((U128(b.tick) << 64) | b.seq);
        }
    };

    /** A pending event; the slot is live while fn is non-empty. */
    struct Slot
    {
        Callback fn;
        const void *touch = nullptr; //!< touch hint, advisory only
        std::uint32_t gen = 0;
        // 4 bytes of padding left.
    };
    static_assert(sizeof(Slot) == 48);

    std::vector<HeapEntry> heap_; //!< min-heap via std::push/pop_heap
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeEventSlots_;
    std::size_t live_ = 0;
    std::size_t peakLive_ = 0;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;

    /**
     * Drop cancel() tombstones off the heap top; returns the live head
     * entry or nullptr if the queue is empty. The single home of the
     * stale-generation test, shared by step() and runUntil().
     */
    const HeapEntry *
    liveTop()
    {
        while (!heap_.empty()) {
            const HeapEntry &top = heap_.front();
            const Slot &s = slots_[top.slot];
            if (s.fn && s.gen == top.gen)
                return &top;
            std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
            heap_.pop_back();
        }
        return nullptr;
    }

    std::uint32_t
    allocSlot()
    {
        if (freeEventSlots_.empty()) {
            slots_.emplace_back();
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t index = freeEventSlots_.back();
        freeEventSlots_.pop_back();
        return index;
    }
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_EVENT_QUEUE_HH
