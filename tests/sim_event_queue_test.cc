/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation, time-limited runs, and a seeded random-operation run
 * checked against a std::set reference model, with and without touch
 * hints.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using sonuma::sim::EventId;
using sonuma::sim::EventQueue;
using sonuma::sim::Tick;

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickFifoBySchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(42, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.scheduleAfter(5, [&] {
            ++fired;
            eq.scheduleAfter(5, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    auto id = eq.schedule(50, [&] { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, CancelFiredEventIsNoop)
{
    EventQueue eq;
    auto id = eq.schedule(1, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, DoubleCancelIsNoop)
{
    EventQueue eq;
    auto id = eq.schedule(1, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    eq.run();
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {10u, 20u, 30u, 40u})
        eq.schedule(t, [&, t] { fired.push_back(t); });
    eq.runUntil(25);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(eq.now(), 25u);
    eq.run();
    EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, EventsAtLimitStillFire)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(100, [&] { ran = true; });
    eq.runUntil(100);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, ExecutedCountTracksFiredOnly)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    auto id = eq.schedule(2, [] {});
    eq.cancel(id);
    eq.schedule(3, [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 2u);
}

TEST(EventQueue, PeakPendingIsTheHighWaterMark)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    auto id = eq.schedule(2, [] {});
    eq.cancel(id);
    eq.schedule(3, [] {});
    EXPECT_EQ(eq.peakPendingEvents(), 2u); // a cancel frees its place
    eq.schedule(4, [&] {
        for (int i = 0; i < 3; ++i)
            eq.scheduleAfter(1, [] {});
    });
    EXPECT_EQ(eq.peakPendingEvents(), 3u);
    eq.run(); // the fourth fires alone and leaves three pending
    EXPECT_EQ(eq.peakPendingEvents(), 3u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        const Tick when = static_cast<Tick>((i * 7919) % 4096);
        eq.schedule(when, [&, when] {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
}

/**
 * Reference model for the oracle test: pending events are a
 * std::set of (tick, seq), seq counting schedule calls, so the queue
 * must fire exactly the set's head every time.
 *
 * With @p hinted, every schedule passes a touch hint drawn from its own
 * generator (so the operation stream is the same either way): null, a
 * live pointer, or a pointer to a block already freed.
 */
struct Oracle
{
    explicit Oracle(bool hinted = false) : hinted(hinted)
    {
        for (int i = 0; i < 8; ++i) {
            const auto block = std::make_unique<Tick[]>(8);
            freedBlocks.push_back(block.get());
        }
    }

    EventQueue eq;
    std::mt19937_64 rng{0x5eed};
    bool hinted;
    std::mt19937_64 hintRng{0x70c4};
    std::vector<const void *> freedBlocks; //!< each already freed
    std::uint64_t freedHints = 0;
    std::set<std::pair<Tick, std::uint64_t>> pending;
    std::vector<EventId> ids;  //!< by seq
    std::vector<Tick> whenOf;  //!< by seq
    std::vector<std::uint64_t> order; //!< seqs in firing order
    std::uint64_t fired = 0;
    std::uint64_t mismatches = 0;

    std::uint64_t pick(std::uint64_t n) { return rng() % n; }

    const void *
    hint()
    {
        if (!hinted)
            return nullptr;
        switch (hintRng() % 3) {
        case 0:
            return nullptr;
        case 1:
            // Live now; freed once whenOf reallocates.
            return whenOf.empty() ? nullptr
                                  : &whenOf[hintRng() % whenOf.size()];
        default:
            ++freedHints;
            return freedBlocks[hintRng() % freedBlocks.size()];
        }
    }

    /** Mostly zero or tiny delays, so same-tick ties are common. */
    Tick
    delay()
    {
        switch (pick(4)) {
        case 0:
            return 0;
        case 1:
            return pick(3);
        case 2:
            return pick(16);
        default:
            return pick(1000);
        }
    }

    void
    schedule()
    {
        const std::uint64_t seq = ids.size();
        const Tick d = delay();
        const Tick when = eq.now() + d;
        auto fn = [this, seq] { fire(seq); };
        ids.push_back(pick(2) ? eq.schedule(when, fn, hint())
                              : eq.scheduleAfter(d, fn, hint()));
        whenOf.push_back(when);
        pending.emplace(when, seq);
    }

    /** Cancel any event ever scheduled: pending, fired or cancelled. */
    void
    cancel()
    {
        if (ids.empty())
            return;
        const std::uint64_t seq = pick(ids.size());
        const bool live = pending.erase({whenOf[seq], seq}) == 1;
        mismatches += eq.cancel(ids[seq]) != live;
    }

    void
    fire(std::uint64_t seq)
    {
        ++fired;
        order.push_back(seq);
        if (pending.empty() ||
            *pending.begin() != std::make_pair(eq.now(), seq)) {
            ++mismatches;
            return;
        }
        pending.erase(pending.begin());
        // Re-entrant scheduling and cancelling from inside the callback.
        switch (pick(8)) {
        case 0:
        case 1:
            schedule();
            break;
        case 2:
            schedule();
            schedule();
            break;
        case 3:
            cancel();
            break;
        default:
            break;
        }
    }
};

/** Drive @p o through the seeded 100k-operation run. */
void
runRandomOperations(Oracle &o)
{
    for (int op = 0; op < 100000; ++op) {
        const std::uint64_t r = o.pick(16);
        if (r < 6) {
            o.schedule();
        } else if (r < 8) {
            o.cancel();
        } else if (r < 15) {
            const bool expectFire = !o.pending.empty();
            o.mismatches += o.eq.step() != expectFire;
        } else {
            const Tick limit = o.eq.now() + o.pick(8);
            o.eq.runUntil(limit);
            o.mismatches += o.eq.now() != limit;
            o.mismatches +=
                !o.pending.empty() && o.pending.begin()->first <= limit;
        }
        o.mismatches += o.eq.pendingEvents() != o.pending.size();
    }
    o.eq.run();
}

TEST(EventQueue, RandomOperationsMatchSetModel)
{
    Oracle o;
    runRandomOperations(o);
    EXPECT_EQ(o.mismatches, 0u);
    EXPECT_TRUE(o.pending.empty());
    EXPECT_EQ(o.fired, o.eq.executedEvents());
    // The run exercised what it is meant to exercise.
    EXPECT_GT(o.ids.size(), 50000u);
    EXPECT_GT(o.fired, 30000u);
    EXPECT_LT(o.fired, o.ids.size());
}

TEST(EventQueue, TouchHintsChangeNeitherOrderNorIds)
{
    Oracle plain;
    Oracle hinted(true);
    runRandomOperations(plain);
    runRandomOperations(hinted);
    EXPECT_EQ(hinted.mismatches, 0u);
    EXPECT_TRUE(hinted.pending.empty());
    EXPECT_EQ(hinted.order, plain.order);
    EXPECT_EQ(hinted.ids, plain.ids);
    EXPECT_EQ(hinted.eq.now(), plain.eq.now());
    EXPECT_GT(hinted.freedHints, 10000u);
}

} // namespace
