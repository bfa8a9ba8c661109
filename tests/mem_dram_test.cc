/**
 * @file
 * Tests for the DDR3-1600 DRAM timing model: idle latency near 60 ns,
 * row-buffer locality, bank parallelism, streaming bandwidth near the
 * 12.8 GB/s channel peak, and queue backpressure.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace {

using namespace sonuma;
using mem::DramChannel;
using mem::DramParams;
using sim::EventQueue;
using sim::StatRegistry;
using sim::Tick;

struct DramFixture : public ::testing::Test
{
    EventQueue eq;
    StatRegistry stats;
    DramChannel dram{eq, stats, "dram", DramParams{}};
};

TEST_F(DramFixture, IdleReadLatencyNear60ns)
{
    Tick done = 0;
    ASSERT_TRUE(dram.access(0, false, [&] { done = eq.now(); }));
    eq.run();
    const double ns = sim::ticksToNs(done);
    // Row miss on a cold bank: controller + tRCD + tCAS + transfer.
    EXPECT_GE(ns, 40.0);
    EXPECT_LE(ns, 70.0);
}

TEST_F(DramFixture, RowHitFasterThanRowMiss)
{
    Tick first = 0, second = 0;
    dram.access(0, false, [&] { first = eq.now(); });
    eq.run();
    const Tick start2 = eq.now();
    dram.access(64 * 8, false, [&] { second = eq.now(); }); // same bank0 row
    eq.run();
    const Tick hit_latency = second - start2;
    EXPECT_LT(hit_latency, first); // hit avoids tRCD (and any precharge)
    EXPECT_EQ(stats.counter("dram.rowHits")->value(), 1u);
    EXPECT_EQ(stats.counter("dram.rowMisses")->value(), 1u);
}

TEST_F(DramFixture, SequentialStreamApproachesPeakBandwidth)
{
    // Stream 4096 sequential lines (256 KB) with unlimited concurrency.
    const int kLines = 4096;
    int done = 0;
    int issued = 0;
    std::function<void()> pump = [&] {
        while (issued < kLines &&
               dram.access(static_cast<std::uint64_t>(issued) * 64, false,
                           [&] { ++done; })) {
            ++issued;
        }
    };
    // Re-pump whenever progress is made.
    for (int i = 0; i < kLines; ++i)
        eq.schedule(static_cast<Tick>(i) * sim::nsToTicks(5), [&] { pump(); });
    eq.run();
    EXPECT_EQ(done, kLines);
    const double secs = sim::ticksToNs(eq.now()) * 1e-9;
    const double gbps = (kLines * 64.0) / secs / 1e9;
    // 12.8 GB/s peak; expect practical streaming >= 9.6 GB/s (paper's
    // "practical maximum" for DDR3-1600).
    EXPECT_GE(gbps, 9.6);
    EXPECT_LE(gbps, 12.9);
}

namespace {

/** A channel under test and the reads it has completed. */
struct Pass
{
    EventQueue &eq;
    DramChannel &dram;
    int done = 0;
};

/** Issue a read, retrying on controller backpressure. */
void
issueWithRetry(Pass &p, std::uint64_t addr)
{
    if (!p.dram.access(addr, false, [&p] { ++p.done; })) {
        p.eq.scheduleAfter(sim::nsToTicks(5),
                           [&p, addr] { issueWithRetry(p, addr); });
    }
}

} // namespace

TEST_F(DramFixture, RandomAccessSlowerThanSequential)
{
    const int kLines = 512;
    // Sequential pass.
    Pass seq{eq, dram};
    for (int i = 0; i < kLines; ++i)
        eq.schedule(static_cast<Tick>(i), [&seq, i] {
            issueWithRetry(seq, static_cast<std::uint64_t>(i) * 64);
        });
    eq.run();
    const double seqNs = sim::ticksToNs(eq.now());

    EventQueue eq2;
    StatRegistry stats2;
    DramChannel dram2(eq2, stats2, "dram2", DramParams{});
    // Random pass: stride of 17 rows defeats the row buffer.
    Pass rnd{eq2, dram2};
    for (int i = 0; i < kLines; ++i) {
        const std::uint64_t addr =
            (static_cast<std::uint64_t>(i) * 17 * 65536 + (i % 3) * 64) %
            (1ull << 30);
        eq2.schedule(static_cast<Tick>(i),
                     [&rnd, addr] { issueWithRetry(rnd, addr); });
    }
    eq2.run();
    const double rndNs = sim::ticksToNs(eq2.now());
    EXPECT_EQ(seq.done, kLines);
    EXPECT_EQ(rnd.done, kLines);
    EXPECT_GT(rndNs, seqNs);
}

TEST_F(DramFixture, QueueBackpressureRejects)
{
    // Fill the controller queue synchronously; the next access must fail.
    int accepted = 0;
    while (dram.access(static_cast<std::uint64_t>(accepted) * 1048576,
                       false, nullptr)) {
        ++accepted;
        ASSERT_LE(accepted, 1000);
    }
    EXPECT_EQ(static_cast<std::uint32_t>(accepted),
              DramParams{}.queueDepth);
    EXPECT_TRUE(dram.full());
    eq.run();
    EXPECT_FALSE(dram.full());
}

TEST_F(DramFixture, WritesCompleteAndCount)
{
    int done = 0;
    dram.access(0, true, [&] { ++done; });
    dram.access(64, true, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(stats.counter("dram.writes")->value(), 2u);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 0u);
}

TEST_F(DramFixture, LatencyHistogramPopulated)
{
    for (int i = 0; i < 10; ++i)
        dram.access(static_cast<std::uint64_t>(i) * 64, false, nullptr);
    eq.run();
    const auto *h = stats.histogram("dram.latencyNs");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 10u);
    EXPECT_GT(h->mean(), 0.0);
}

TEST_F(DramFixture, BankParallelismBeatsSingleBank)
{
    // 64 accesses across all 8 banks vs. 64 accesses to rows in bank 0.
    int doneA = 0;
    for (int i = 0; i < 64; ++i)
        dram.access(static_cast<std::uint64_t>(i) * 64, false,
                    [&] { ++doneA; });
    eq.run();
    const double parallelNs = sim::ticksToNs(eq.now());

    EventQueue eqB;
    StatRegistry statsB;
    DramChannel dramB(eqB, statsB, "dramB", DramParams{});
    int doneB = 0;
    // Same bank (stride = banks * 64 within different rows).
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(i) * 8 * 8192 * 8; // bank 0 rows
        dramB.access(addr, false, [&] { ++doneB; });
    }
    eqB.run();
    const double serialNs = sim::ticksToNs(eqB.now());
    EXPECT_EQ(doneA, 64);
    EXPECT_EQ(doneB, 64);
    EXPECT_LT(parallelNs, serialNs);
}

} // namespace
