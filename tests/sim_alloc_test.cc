/**
 * @file
 * Allocation-counting test hook: verifies the zero-allocation guarantee
 * of the simulation core. This binary overrides global operator
 * new/delete to count heap allocations, warms each subsystem up, and
 * then asserts that the steady-state event loop, coroutine spawn cycle,
 * and fabric message path perform zero allocations per event.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "fabric/crossbar.hh"
#include "fabric/fabric.hh"
#include "fabric/torus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

static std::uint64_t g_allocCount = 0;

void *
operator new(std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace sonuma;

TEST(AllocCounting, HookCountsAllocations)
{
    const std::uint64_t before = g_allocCount;
    // Call the replaceable allocation function directly: a plain
    // `new int` can legally be elided by the optimizer.
    void *p = ::operator new(8);
    EXPECT_GT(g_allocCount, before);
    ::operator delete(p);
}

TEST(AllocCounting, SteadyStateEventLoopIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);

    struct Chain
    {
        sim::EventQueue &eq;
        std::uint64_t fired = 0;
        std::uint64_t target = 0;

        void
        arm()
        {
            eq.scheduleAfter(1, [this] {
                ++fired;
                if (fired < target)
                    arm();
            });
        }
    } chain{eq};

    // Warm-up: grow heap storage, slot table, freelists.
    chain.target = 256;
    for (int i = 0; i < 16; ++i)
        chain.arm();
    eq.run();

    chain.fired = 0;
    chain.target = 10'000;
    for (int i = 0; i < 16; ++i)
        chain.arm();
    const std::uint64_t a0 = g_allocCount;
    eq.run();
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "steady-state schedule/fire must not allocate";
    EXPECT_GE(chain.fired, 10'000u);
}

TEST(AllocCounting, ScheduleCancelCycleIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);

    // Warm-up, including tombstone churn.
    for (int i = 0; i < 64; ++i) {
        auto id = eq.scheduleAfter(5, [] {});
        eq.cancel(id);
    }
    eq.run();

    const std::uint64_t a0 = g_allocCount;
    for (int i = 0; i < 10'000; ++i) {
        auto id = eq.scheduleAfter(5, [] {});
        eq.cancel(id);
        eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "cancel must recycle slots without allocating";
}

sim::FireAndForget
transaction(sim::EventQueue &eq, std::uint64_t *done)
{
    co_await sim::Delay(eq, 1);
    co_await sim::Delay(eq, 1);
    ++*done;
}

TEST(AllocCounting, SteadyStateCoroutineChurnIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);
    std::uint64_t done = 0;

    // Warm-up: pool a batch of frames.
    for (int i = 0; i < 32; ++i)
        transaction(eq, &done);
    eq.run();

    const std::uint64_t a0 = g_allocCount;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 32; ++i)
            transaction(eq, &done);
        eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "warmed coroutine spawn/complete cycles must not allocate";
    EXPECT_EQ(done, 32u * 101);
}

TEST(AllocCounting, SteadyStateL1HitPathIsAllocationFree)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    mem::DramChannel dram(eq, stats, "dram");
    mem::L2Cache l2(eq, stats, "l2", {}, dram);
    mem::L1Cache l1(eq, stats, "l1", {}, l2);

    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // Warm-up: fill the line (miss path touches MSHR/directory maps)
    // and let the access slot table reach steady size.
    for (int i = 0; i < 4; ++i) {
        l1.access(0x1000, false, bump);
        eq.run();
    }

    const std::uint64_t a0 = g_allocCount;
    for (int i = 0; i < 5'000; ++i) {
        l1.access(0x1000, false, bump);
        eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "L1 hits must ride the slot table, not heap closures";
    EXPECT_EQ(done, 5'004u);
}

/**
 * Stream 5'000 warmed packets 0 -> @p dst through @p fabric and expect
 * no allocation on the send, forward and deliver path.
 */
void
expectAllocationFreeFabricPath(sim::EventQueue &eq, fab::Fabric &fabric,
                               sim::StatRegistry &stats, sim::NodeId dst)
{
    std::vector<std::unique_ptr<fab::NetworkInterface>> nis;
    for (sim::NodeId i = 0; i <= dst; ++i)
        nis.push_back(std::make_unique<fab::NetworkInterface>(
            eq, stats, "ni" + std::to_string(i), i, fabric));
    fab::NetworkInterface &sink = *nis[dst];

    std::uint64_t received = 0;
    sink.onArrival(fab::Lane::kRequest, [&sink, &received] {
        while (sink.hasMessage(fab::Lane::kRequest)) {
            sink.pop(fab::Lane::kRequest);
            ++received;
        }
    });

    fab::Message msg;
    msg.op = fab::Op::kReadReq;
    msg.srcNid = 0;
    msg.dstNid = dst;

    struct Producer
    {
        sim::EventQueue &eq;
        fab::NetworkInterface &ni;
        fab::Message &msg;
        std::uint64_t toSend = 0;

        void
        pump()
        {
            while (toSend > 0 && ni.trySend(msg))
                --toSend;
            if (toSend > 0)
                eq.scheduleAfter(100, [this] { pump(); });
        }
    } producer{eq, *nis[0], msg};

    // Warm-up: sizes the NI rings, link rings, and event storage.
    producer.toSend = 512;
    producer.pump();
    eq.run();
    received = 0;

    producer.toSend = 5'000;
    const std::uint64_t a0 = g_allocCount;
    producer.pump();
    eq.run();
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "warmed fabric send/deliver path must not allocate";
    EXPECT_EQ(received, 5'000u);
}

TEST(AllocCounting, SteadyStateFabricPathIsAllocationFree)
{
    {
        sim::EventQueue eq;
        sim::StatRegistry stats;
        fab::CrossbarFabric xbar(eq, stats);
        expectAllocationFreeFabricPath(eq, xbar, stats, 1);
    }
    // Two torus hops: the packet is forwarded through node 1's router.
    sim::EventQueue eq;
    sim::StatRegistry stats;
    fab::TorusParams ring;
    ring.dims = {4};
    fab::TorusFabric torus(eq, stats, ring);
    expectAllocationFreeFabricPath(eq, torus, stats, 2);
}

} // namespace
