/**
 * @file
 * Dedicated tests for the one-sided barrier (paper §5.3): no early
 * escape under staggered arrivals, reuse across generations, scaling
 * to 16 nodes, generation counting, announcements lost to a peer death
 * landing by retransmission once the peer recovers, and coexistence
 * with application traffic on a shared queue pair (safe under the v2
 * per-slot completion model).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "api/barrier.hh"
#include "api/testbed.hh"
#include "sim/simulation.hh"

namespace {

using namespace sonuma;
using api::Barrier;
using api::ClusterSpec;
using api::RmcSession;
using api::TestBed;
using api::operator""_KiB;

struct BarrierFixture : public ::testing::Test
{
    std::unique_ptr<TestBed> bed;
    std::vector<Barrier *> barriers;
    std::vector<std::unique_ptr<Barrier>> owned;

    void
    build(std::uint32_t n)
    {
        bed = std::make_unique<TestBed>(
            ClusterSpec{}
                .nodes(n)
                .segmentPerNode(
                    std::max<std::uint64_t>(4_KiB,
                                            Barrier::regionBytes(n)))
                .seed(11));
        std::vector<sim::NodeId> all(n);
        std::iota(all.begin(), all.end(), 0);
        for (std::uint32_t i = 0; i < n; ++i) {
            owned.push_back(std::make_unique<Barrier>(
                bed->session(i), all, bed->segBase(i), 0));
            barriers.push_back(owned.back().get());
        }
    }

    sim::Simulation &sim() { return bed->sim(); }
};

TEST_F(BarrierFixture, NoNodeEscapesEarly)
{
    build(4);
    std::vector<sim::Tick> exitTimes(4, 0);
    sim::Tick lastArrival = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        sim().spawn([](BarrierFixture *f, std::uint32_t i,
                       sim::Tick *lastArrival,
                       std::vector<sim::Tick> *exits) -> sim::Task {
            // Stagger arrivals: node i arrives at i * 10 us.
            co_await sim::Delay(f->sim().eq(), sim::usToTicks(10) * i);
            *lastArrival = std::max(*lastArrival, f->sim().now());
            co_await f->barriers[i]->arrive();
            (*exits)[i] = f->sim().now();
        }(this, i, &lastArrival, &exitTimes));
    }
    sim().run();
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_GE(exitTimes[i], lastArrival) << "node " << i;
}

TEST_F(BarrierFixture, ReusableAcrossGenerations)
{
    build(3);
    std::vector<int> rounds(3, 0);
    for (std::uint32_t i = 0; i < 3; ++i) {
        sim().spawn([](BarrierFixture *f, std::uint32_t i,
                       std::vector<int> *rounds) -> sim::Task {
            for (int r = 0; r < 5; ++r) {
                co_await f->barriers[i]->arrive();
                // All nodes must be in the same round after each barrier.
                for (int n = 0; n < 3; ++n)
                    EXPECT_GE((*rounds)[static_cast<std::size_t>(n)] + 1,
                              r);
                ++(*rounds)[i];
            }
        }(this, i, &rounds));
    }
    sim().run();
    EXPECT_EQ(rounds, (std::vector<int>{5, 5, 5}));
    for (const auto *b : barriers)
        EXPECT_EQ(b->generation(), 5u);
}

TEST_F(BarrierFixture, TwoNodeBarrierFast)
{
    build(2);
    sim::Tick done = 0;
    for (std::uint32_t i = 0; i < 2; ++i) {
        sim().spawn([](BarrierFixture *f, std::uint32_t i,
                       sim::Tick *done) -> sim::Task {
            co_await f->barriers[i]->arrive();
            *done = std::max(*done, f->sim().now());
        }(this, i, &done));
    }
    sim().run();
    // One remote write each way + local polling: ~hundreds of ns.
    EXPECT_LT(sim::ticksToNs(done), 2000.0);
}

TEST_F(BarrierFixture, SixteenNodesConverge)
{
    build(16);
    int passed = 0;
    for (std::uint32_t i = 0; i < 16; ++i) {
        sim().spawn([](BarrierFixture *f, std::uint32_t i,
                       int *passed) -> sim::Task {
            // Uneven arrival pattern across three rounds.
            for (int r = 0; r < 3; ++r) {
                co_await sim::Delay(f->sim().eq(),
                                    sim::usToTicks((i * 7 + r) % 5));
                co_await f->barriers[i]->arrive();
            }
            ++*passed;
        }(this, i, &passed));
    }
    sim().run();
    EXPECT_EQ(passed, 16);
    for (const auto *b : barriers)
        EXPECT_EQ(b->generation(), 3u);
}

TEST_F(BarrierFixture, AnnouncementsLostToAPeerDeathLandAfterItRecovers)
{
    // Node 2 dies while the announcement writes are on the wire and
    // comes back 20 us later. Nobody is told: the lost writes, to and
    // from node 2, time out and are retransmitted by the RMC, so every
    // node passes the barrier (the last only once node 2 is back), with
    // nothing given up.
    build(4);
    const sim::Tick kill = sim::nsToTicks(350);
    const sim::Tick back = kill + sim::usToTicks(20);
    auto &fabric = bed->cluster().fabric();
    const auto &stats = sim().stats();
    std::uint64_t sentBeforeKill = 0;
    sim().eq().schedule(kill, [&] {
        for (std::uint32_t i = 0; i < 4; ++i)
            sentBeforeKill += stats
                                  .counter("node" + std::to_string(i) +
                                           ".rmc.rgp.requestPackets")
                                  ->value();
        fabric.failNode(2);
    });
    sim().eq().schedule(back, [&fabric] { fabric.recoverNode(2); });
    std::vector<sim::Tick> exits(4, 0);
    for (std::uint32_t i = 0; i < 4; ++i) {
        sim().spawn([](BarrierFixture *f, std::uint32_t i,
                       std::vector<sim::Tick> *exits) -> sim::Task {
            co_await f->barriers[i]->arrive();
            (*exits)[i] = f->sim().now();
        }(this, i, &exits));
    }
    sim().run();
    ASSERT_TRUE(sim().allRootsDone()) << "the barrier never completed";
    EXPECT_GT(sentBeforeKill, 0u) << "no announcement was on the wire";
    EXPECT_GT(fabric.droppedMessages(), 0u) << "the kill must bite";
    std::uint64_t retransmits = 0, unrecoverable = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        const std::string node = "node" + std::to_string(i) + ".rmc.";
        retransmits += stats.counter(node + "retransmits")->value();
        unrecoverable += stats.counter(node + "unrecoverable")->value();
        EXPECT_EQ(barriers[i]->generation(), 1u);
    }
    EXPECT_GE(*std::max_element(exits.begin(), exits.end()), back);
    EXPECT_GT(retransmits, 0u);
    EXPECT_EQ(unrecoverable, 0u);
}

TEST_F(BarrierFixture, SharesQpWithApplicationTraffic)
{
    // v2: barrier announcement writes are fire-and-forget slot posts,
    // so interleaving application reads on the *same session* is safe.
    build(4);
    int trafficOk = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        sim().spawn([](BarrierFixture *f, std::uint32_t i,
                       int *ok) -> sim::Task {
            auto &s = f->bed->session(i); // same session as the barrier
            const vm::VAddr buf = s.allocBuffer(64);
            const auto peer = static_cast<sim::NodeId>((i + 1) % 4);
            for (int r = 0; r < 3; ++r) {
                const api::OpResult res =
                    co_await s.read(peer, 0, buf, 64);
                EXPECT_TRUE(res.ok());
                co_await f->barriers[i]->arrive();
            }
            ++*ok;
        }(this, i, &trafficOk));
    }
    sim().run();
    EXPECT_EQ(trafficOk, 4);
}

} // namespace
