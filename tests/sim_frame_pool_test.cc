/**
 * @file
 * Frame-pool tests: coroutine frames are recycled through the freelist,
 * outstanding counts balance, and oversize frames fall through cleanly.
 * Slot-pool tests: the order in which sim::SlotPool hands out indices,
 * which the ITT and the MAQ simulate.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/simulation.hh"
#include "sim/slot_pool.hh"
#include "sim/task.hh"

namespace {

using namespace sonuma;

sim::FireAndForget
smallTransaction(sim::EventQueue &eq, int *done)
{
    co_await sim::Delay(eq, 1);
    ++*done;
}

sim::Task
smallTask(int *done)
{
    ++*done;
    co_return;
}

sim::FireAndForget
hugeFrameTransaction(sim::EventQueue &eq, std::uint64_t *sum)
{
    // Large locals force an oversize coroutine frame (> kMaxPooledBytes).
    std::array<std::uint64_t, 1024> scratch{};
    scratch.fill(1);
    co_await sim::Delay(eq, 1);
    for (auto v : scratch)
        *sum += v;
}

TEST(FramePool, FireAndForgetFramesAreReused)
{
    auto &pool = sim::FramePool::instance();
    sim::EventQueue eq;
    int done = 0;

    // Prime: first frame is a fresh heap block.
    smallTransaction(eq, &done);
    eq.run();

    pool.resetStats();
    const int kRounds = 100;
    for (int i = 0; i < kRounds; ++i) {
        smallTransaction(eq, &done);
        eq.run();
    }
    EXPECT_EQ(done, kRounds + 1);
    const auto &st = pool.stats();
    EXPECT_EQ(st.allocs, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(st.reuses, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(st.fresh, 0u);
}

TEST(FramePool, TaskFramesAreReused)
{
    auto &pool = sim::FramePool::instance();
    int done = 0;
    {
        sim::Simulation s;
        s.spawn(smallTask(&done));
        s.run();
    }
    pool.resetStats();
    const int kRounds = 50;
    for (int i = 0; i < kRounds; ++i) {
        sim::Simulation s;
        s.spawn(smallTask(&done));
        s.run();
    }
    EXPECT_EQ(done, kRounds + 1);
    EXPECT_EQ(pool.stats().reuses, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(pool.stats().fresh, 0u);
}

TEST(FramePool, OutstandingBalancesToZero)
{
    auto &pool = sim::FramePool::instance();
    const std::uint64_t before = pool.stats().outstanding;
    sim::EventQueue eq;
    int done = 0;
    for (int i = 0; i < 8; ++i)
        smallTransaction(eq, &done);
    EXPECT_GT(pool.stats().outstanding, before); // frames live while queued
    eq.run();
    EXPECT_EQ(pool.stats().outstanding, before);
    EXPECT_EQ(done, 8);
}

TEST(FramePool, OversizeFramesFallThrough)
{
    auto &pool = sim::FramePool::instance();
    sim::EventQueue eq;
    std::uint64_t sum = 0;
    pool.resetStats();
    hugeFrameTransaction(eq, &sum);
    eq.run();
    EXPECT_EQ(sum, 1024u);
    EXPECT_GE(pool.stats().oversize, 1u);
}

TEST(FramePool, ConcurrentFramesGetDistinctBlocksThenPool)
{
    auto &pool = sim::FramePool::instance();
    sim::EventQueue eq;
    int done = 0;

    // 16 frames live at once: the pool must mint 16 distinct blocks.
    for (int i = 0; i < 16; ++i)
        smallTransaction(eq, &done);
    eq.run();

    // A second wave of 16 reuses all of them.
    pool.resetStats();
    for (int i = 0; i < 16; ++i)
        smallTransaction(eq, &done);
    eq.run();
    EXPECT_EQ(pool.stats().fresh, 0u);
    EXPECT_EQ(pool.stats().reuses, 16u);
}

TEST(SlotPool, FreshIndicesAscendAndReuseIsLifo)
{
    sim::SlotPool<int> pool;
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(pool.acquire(), i);
        pool[i] = 10 + int(i);
    }
    EXPECT_EQ(pool.live(), 4u);

    pool.release(1);
    pool.release(3);
    pool.release(0);
    EXPECT_EQ(pool.live(), 1u);
    EXPECT_EQ(pool.size(), 4u);

    // The most recently released slot first, its contents untouched.
    EXPECT_EQ(pool.acquire(), 0u);
    EXPECT_EQ(pool[0], 10);
    EXPECT_EQ(pool.acquire(), 3u);
    EXPECT_EQ(pool[3], 13);
    EXPECT_EQ(pool.acquire(), 1u);
    EXPECT_EQ(pool[1], 11);
    // Nothing left to reuse: the next fresh index, value-initialized.
    EXPECT_EQ(pool.acquire(), 4u);
    EXPECT_EQ(pool[4], 0);
    EXPECT_EQ(pool.live(), 5u);
    EXPECT_EQ(pool.size(), 5u);
}

TEST(SlotPool, TakeMovesTheValueOutAndFreesTheSlot)
{
    sim::SlotPool<std::string> pool;
    const std::uint32_t a = pool.put("parked a");
    const std::uint32_t b = pool.put("parked b");
    EXPECT_EQ(pool.live(), 2u);

    EXPECT_EQ(pool.take(a), "parked a");
    EXPECT_EQ(pool.live(), 1u);
    // put() reuses the freed slot and overwrites it.
    EXPECT_EQ(pool.put("parked c"), a);
    EXPECT_EQ(pool[a], "parked c");
    EXPECT_EQ(pool.take(b), "parked b");
    EXPECT_EQ(pool.take(a), "parked c");
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.size(), 2u);
}

} // namespace
