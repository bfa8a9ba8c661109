/**
 * @file
 * Tests for the fabric layer: message format, NI queues, crossbar
 * latency/credits/backpressure, torus routing and delivery, failure
 * injection, and ordering guarantees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/crossbar.hh"
#include "fabric/router.hh"
#include "fabric/torus.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace {

using namespace sonuma;
using namespace sonuma::fab;
using sim::EventQueue;
using sim::StatRegistry;
using sim::Tick;

Message
mkMsg(sim::NodeId src, sim::NodeId dst, Op op = Op::kReadReq,
      std::uint32_t tid = 0)
{
    Message m;
    m.op = op;
    m.srcNid = src;
    m.dstNid = dst;
    m.tid = tid;
    return m;
}

TEST(Message, LaneAssignment)
{
    EXPECT_EQ(laneOf(Op::kReadReq), Lane::kRequest);
    EXPECT_EQ(laneOf(Op::kWriteReq), Lane::kRequest);
    EXPECT_EQ(laneOf(Op::kCasReq), Lane::kRequest);
    EXPECT_EQ(laneOf(Op::kFetchAddReq), Lane::kRequest);
    EXPECT_EQ(laneOf(Op::kReadReply), Lane::kReply);
    EXPECT_EQ(laneOf(Op::kErrorReply), Lane::kReply);
}

TEST(Message, WireSizeIncludesPayload)
{
    Message m = mkMsg(0, 1);
    EXPECT_EQ(m.wireBytes(), Message::kHeaderBytes);
    std::uint8_t line[64] = {};
    m.setPayload(line, 64);
    EXPECT_EQ(m.wireBytes(), Message::kHeaderBytes + 64);
}

TEST(Message, ReplySwapsEndpointsAndEchoesTidOffset)
{
    Message m = mkMsg(3, 7, Op::kReadReq, 42);
    m.offset = 0x1234;
    m.ctxId = 9;
    Message r = m.makeReply(Op::kReadReply);
    EXPECT_EQ(r.srcNid, 7);
    EXPECT_EQ(r.dstNid, 3);
    EXPECT_EQ(r.tid, 42u);
    EXPECT_EQ(r.offset, 0x1234u);
    EXPECT_EQ(r.ctxId, 9);
    EXPECT_EQ(r.lane(), Lane::kReply);
}

struct XbarFixture : public ::testing::Test
{
    EventQueue eq;
    StatRegistry stats;
    CrossbarFabric xbar{eq, stats, CrossbarParams{}};
    NetworkInterface ni0{eq, stats, "ni0", 0, xbar};
    NetworkInterface ni1{eq, stats, "ni1", 1, xbar};
};

TEST_F(XbarFixture, DeliversWithFlatLatency)
{
    Tick arrival = 0;
    ni1.onArrival(Lane::kRequest, [&] { arrival = eq.now(); });
    ASSERT_TRUE(ni0.trySend(mkMsg(0, 1)));
    eq.run();
    ASSERT_TRUE(ni1.hasMessage(Lane::kRequest));
    // 24 B @ 12.8 GB/s ~ 1.9 ns serialization + 50 ns propagation.
    EXPECT_NEAR(sim::ticksToNs(arrival), 51.9, 0.2);
    EXPECT_EQ(ni1.pop(Lane::kRequest).srcNid, 0);
}

TEST_F(XbarFixture, PerSrcDstOrderingPreserved)
{
    std::vector<std::uint32_t> order;
    ni1.onArrival(Lane::kRequest, [&] {
        while (ni1.hasMessage(Lane::kRequest))
            order.push_back(ni1.pop(Lane::kRequest).tid);
    });
    for (std::uint32_t i = 0; i < 10; ++i)
        ASSERT_TRUE(ni0.trySend(mkMsg(0, 1, Op::kReadReq, i)));
    eq.run();
    ASSERT_EQ(order.size(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(XbarFixture, LanesAreIndependent)
{
    ASSERT_TRUE(ni0.trySend(mkMsg(0, 1, Op::kReadReq)));
    ASSERT_TRUE(ni0.trySend(mkMsg(0, 1, Op::kReadReply)));
    eq.run();
    EXPECT_TRUE(ni1.hasMessage(Lane::kRequest));
    EXPECT_TRUE(ni1.hasMessage(Lane::kReply));
}

/**
 * The fabric core behind both topologies: a 2-node crossbar sending
 * 0 -> 1 (one crossing) and a 4-node ring torus sending 0 -> 2 (two
 * hops), so parking and faults are checked across forwarding routers.
 */
enum class Topology
{
    kCrossbar,
    kTorus,
};

class FabricCore : public ::testing::TestWithParam<Topology>
{
  protected:
    EventQueue eq;
    StatRegistry stats;
    std::unique_ptr<Fabric> fabric;
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    sim::NodeId dst = 1;
    double hops = 1.0;
    std::string prefix = "fabric";

    void
    SetUp() override
    {
        std::size_t nodes = 2;
        if (GetParam() == Topology::kTorus) {
            TorusParams p;
            p.dims = {4};
            fabric = std::make_unique<TorusFabric>(eq, stats, p);
            nodes = 4;
            dst = 2;
            hops = 2.0;
            prefix = "torus";
        } else {
            fabric = std::make_unique<CrossbarFabric>(eq, stats);
        }
        for (sim::NodeId i = 0; i < nodes; ++i)
            nis.push_back(std::make_unique<NetworkInterface>(
                eq, stats, "ni" + std::to_string(i), i, *fabric));
    }

    NetworkInterface &src() { return *nis[0]; }
    NetworkInterface &sink() { return *nis[dst]; }
    std::uint64_t
    stat(const char *name)
    {
        return stats.counter(prefix + "." + name)->value();
    }
};

TEST_P(FabricCore, EjectBackpressureParksThenDrains)
{
    // Default eject queue depth is 16; send 40 without popping.
    for (int i = 0; i < 40; ++i)
        src().trySend(
            mkMsg(0, dst, Op::kReadReq, static_cast<std::uint32_t>(i)));
    eq.run();
    EXPECT_EQ(sink().ejectDepth(Lane::kRequest), 16u);
    EXPECT_EQ(stat("parked"), 24u);
    // Draining the eject queue pulls parked packets through in order.
    std::vector<std::uint32_t> seen;
    while (sink().hasMessage(Lane::kRequest)) {
        seen.push_back(sink().pop(Lane::kRequest).tid);
        eq.run();
    }
    ASSERT_EQ(seen.size(), 40u);
    for (std::uint32_t i = 0; i < 40; ++i)
        EXPECT_EQ(seen[i], i);
    // Parked packets keep the hops they crossed.
    EXPECT_EQ(stat("delivered"), 40u);
    EXPECT_DOUBLE_EQ(fabric->meanHops(), hops);
}

TEST_P(FabricCore, CreditsExhaustionBlocksInjectionThenRecovers)
{
    // Default credits 64 per lane; inject queue 16. With nobody popping,
    // in-flight = credits + parked; eventually trySend fails.
    int accepted = 0;
    while (src().trySend(mkMsg(0, dst)) && accepted < 1000)
        ++accepted;
    EXPECT_LT(accepted, 1000);
    eq.run();
    // Drain everything at the receiver; sender queue must fully flush.
    int received = 0;
    while (true) {
        while (sink().hasMessage(Lane::kRequest)) {
            sink().pop(Lane::kRequest);
            ++received;
        }
        if (eq.empty() && !sink().hasMessage(Lane::kRequest))
            break;
        eq.run();
    }
    EXPECT_EQ(received, accepted);
}

TEST_P(FabricCore, FailedNodeDropsTraffic)
{
    fabric->failNode(dst);
    src().trySend(mkMsg(0, dst));
    eq.run();
    EXPECT_FALSE(sink().hasMessage(Lane::kRequest));
    EXPECT_GT(fabric->droppedMessages(), 0u);
}

TEST_P(FabricCore, FailingADestinationDropsItsParkedPacketsAndFreesCredits)
{
    // 16 packets fill the eject queue, 24 park holding their credits.
    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(src().trySend(mkMsg(0, dst)));
    eq.run();
    ASSERT_EQ(stat("parked"), 24u);
    ASSERT_EQ(fabric->droppedMessages(), 0u);

    fabric->failNode(dst);
    EXPECT_EQ(fabric->droppedMessages(), 24u);
    EXPECT_EQ(stat("delivered"), 16u);

    // Every credit came back: after recovery the sender injects a full
    // window of creditsPerLane packets straight into the fabric, and
    // only the next one waits in its inject queue.
    fabric->recoverNode(dst);
    const std::uint32_t credits = CrossbarParams{}.creditsPerLane;
    ASSERT_EQ(credits, TorusParams{}.creditsPerLane);
    for (std::uint32_t i = 0; i < credits; ++i)
        ASSERT_TRUE(src().trySend(mkMsg(0, dst)));
    EXPECT_EQ(src().injectDepth(Lane::kRequest), 0u);
    ASSERT_TRUE(src().trySend(mkMsg(0, dst)));
    EXPECT_EQ(src().injectDepth(Lane::kRequest), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, FabricCore,
    ::testing::Values(Topology::kCrossbar, Topology::kTorus),
    [](const ::testing::TestParamInfo<Topology> &info) {
        return info.param == Topology::kTorus ? "Torus4Ring" : "Crossbar2";
    });

TEST(TorusRouting, CoordsRoundTrip)
{
    TorusRouting r({4, 4});
    for (sim::NodeId id = 0; id < 16; ++id)
        EXPECT_EQ(r.idAt(r.coords(id)), id);
}

TEST(TorusRouting, HopCountsSymmetricAndBounded)
{
    TorusRouting r({4, 4});
    for (sim::NodeId a = 0; a < 16; ++a) {
        for (sim::NodeId b = 0; b < 16; ++b) {
            EXPECT_EQ(r.hopCount(a, b), r.hopCount(b, a));
            EXPECT_LE(r.hopCount(a, b), 4u); // 2+2 max in a 4x4 torus
            if (a != b) {
                EXPECT_GE(r.hopCount(a, b), 1u);
            }
        }
    }
}

TEST(TorusRouting, DimensionOrderReachesDestination)
{
    TorusRouting r({4, 4});
    for (sim::NodeId a = 0; a < 16; ++a) {
        for (sim::NodeId b = 0; b < 16; ++b) {
            if (a == b)
                continue;
            sim::NodeId cur = a;
            std::uint32_t steps = 0;
            while (cur != b) {
                cur = r.neighbor(cur, r.nextDir(cur, b));
                ASSERT_LE(++steps, 8u) << "routing loop " << a << "->" << b;
            }
            EXPECT_EQ(steps, r.hopCount(a, b)) << a << "->" << b;
        }
    }
}

TEST(TorusRouting, CoordinateTableMatchesTheDivisionFormula)
{
    // The routing calls read digits from a per-node coordinate table;
    // each answer must equal the mixed-radix division it replaced.
    const std::vector<std::vector<std::uint32_t>> shapes = {
        {2, 4}, {4, 4, 4}, {4, 4, 8}, {3, 5}};
    for (const auto &dims : shapes) {
        TorusRouting r(dims);
        std::vector<std::uint32_t> strides;
        std::uint32_t total = 1;
        for (auto k : dims) {
            strides.push_back(total);
            total *= k;
        }
        ASSERT_EQ(r.nodeCount(), total);
        const auto digit = [&](std::uint32_t id, std::size_t d) {
            return (id / strides[d]) % dims[d];
        };
        for (std::uint32_t a = 0; a < total; ++a) {
            for (std::uint32_t b = 0; b < total; ++b) {
                std::uint32_t hops = 0;
                std::uint32_t dir = 2 * dims.size(); // none yet
                for (std::size_t d = 0; d < dims.size(); ++d) {
                    const std::uint32_t k = dims[d];
                    const std::uint32_t ca = digit(a, d);
                    const std::uint32_t cb = digit(b, d);
                    const std::uint32_t fwd = (cb + k - ca) % k;
                    const std::uint32_t bwd = (ca + k - cb) % k;
                    hops += std::min(fwd, bwd);
                    if (fwd != 0 && dir == 2 * dims.size())
                        dir = static_cast<std::uint32_t>(
                            fwd <= bwd ? 2 * d : 2 * d + 1);
                }
                EXPECT_EQ(r.hopCount(a, b), hops) << a << "->" << b;
                if (a != b) {
                    EXPECT_EQ(r.nextDir(a, b), dir) << a << "->" << b;
                }
            }
            for (std::uint32_t dir = 0; dir < r.portCount(); ++dir) {
                const std::size_t d = dir / 2;
                const std::uint32_t k = dims[d];
                const std::uint32_t c = digit(a, d);
                const std::uint32_t next =
                    dir % 2 == 0 ? (c + 1) % k : (c + k - 1) % k;
                EXPECT_EQ(r.neighbor(a, dir), a + (next - c) * strides[d])
                    << a << " dir " << dir;
            }
        }
    }
}

TEST(TorusRouting, WrapAroundUsesShortPath)
{
    TorusRouting r({8});
    // 0 -> 7 should go negative (1 hop) not positive (7 hops).
    EXPECT_EQ(r.hopCount(0, 7), 1u);
    EXPECT_EQ(r.nextDir(0, 7), 1u); // negative direction of dim 0
}

TEST(TorusRouting3D, HopCountsOn2x2x2)
{
    TorusRouting r({2, 2, 2});
    EXPECT_EQ(r.nodeCount(), 8u);
    EXPECT_EQ(r.portCount(), 6u); // 2 directed ports per dimension
    // In a 2-ring every dimension is one hop either way: the hop count
    // is the Hamming distance of the 3-bit coordinates.
    for (sim::NodeId a = 0; a < 8; ++a) {
        for (sim::NodeId b = 0; b < 8; ++b) {
            const auto hamming =
                static_cast<std::uint32_t>(__builtin_popcount(a ^ b));
            EXPECT_EQ(r.hopCount(a, b), hamming) << a << "->" << b;
        }
    }
}

TEST(TorusRouting3D, CoordsRoundTripAndDiameterOn4x4x4)
{
    TorusRouting r({4, 4, 4});
    EXPECT_EQ(r.nodeCount(), 64u);
    std::uint32_t diameter = 0;
    for (sim::NodeId a = 0; a < 64; ++a) {
        EXPECT_EQ(r.idAt(r.coords(a)), a);
        for (sim::NodeId b = 0; b < 64; ++b)
            diameter = std::max(diameter, r.hopCount(a, b));
    }
    // 2 hops max per 4-ring, 3 dimensions.
    EXPECT_EQ(diameter, 6u);
}

TEST(TorusRouting3D, DimensionOrderReachesDestinationOn4x4x4)
{
    TorusRouting r({4, 4, 4});
    for (sim::NodeId a = 0; a < 64; ++a) {
        for (sim::NodeId b = 0; b < 64; ++b) {
            if (a == b)
                continue;
            // Dimension-order: the route resolves dimension 0, then 1,
            // then 2, never revisiting a resolved dimension, and takes
            // exactly hopCount() steps.
            sim::NodeId cur = a;
            std::uint32_t steps = 0;
            std::uint32_t lastDim = 0;
            while (cur != b) {
                const std::uint32_t dir = r.nextDir(cur, b);
                const std::uint32_t dim = dir / 2;
                EXPECT_GE(dim, lastDim) << a << "->" << b;
                lastDim = dim;
                cur = r.neighbor(cur, dir);
                ASSERT_LE(++steps, 6u) << "routing loop " << a << "->" << b;
            }
            EXPECT_EQ(steps, r.hopCount(a, b)) << a << "->" << b;
        }
    }
}

TEST(TorusRouting3D, MessagesCrossA2x2x2Fabric)
{
    EventQueue eq;
    StatRegistry stats;
    TorusParams params;
    params.dims = {2, 2, 2};
    TorusFabric torus(eq, stats, params);
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    for (sim::NodeId i = 0; i < 8; ++i)
        nis.push_back(std::make_unique<NetworkInterface>(
            eq, stats, "t3ni" + std::to_string(i), i, torus));

    // 0 -> 7 is the 3-hop corner-to-corner route.
    ASSERT_TRUE(nis[0]->trySend(mkMsg(0, 7)));
    eq.run();
    ASSERT_TRUE(nis[7]->hasMessage(Lane::kRequest));
    EXPECT_EQ(nis[7]->pop(Lane::kRequest).srcNid, 0);
    EXPECT_DOUBLE_EQ(torus.meanHops(), 3.0);
}

TEST(TorusRouting3D, MorePortsThanTheLinkMasksHoldAreRejected)
{
    // 17 radix-2 dimensions: 34 ports per router, past the 32-bit
    // link-state masks (and past a 16-bit NodeId's 65,536 nodes).
    EventQueue eq;
    StatRegistry stats;
    TorusParams params;
    params.dims.assign(17, 2);
    EXPECT_THROW(TorusFabric(eq, stats, params), std::invalid_argument);
}

struct TorusFixture : public ::testing::Test
{
    EventQueue eq;
    StatRegistry stats;
    TorusFabric torus{eq, stats, TorusParams{}};
    std::vector<std::unique_ptr<NetworkInterface>> nis;

    void
    SetUp() override
    {
        for (sim::NodeId i = 0; i < 16; ++i)
            nis.push_back(std::make_unique<NetworkInterface>(
                eq, stats, "tni" + std::to_string(i), i, torus));
    }
};

TEST_F(TorusFixture, LatencyScalesWithHops)
{
    // 1 hop: 0 -> 1. 4 hops: 0 -> 10 (coords (0,0) -> (2,2)).
    Tick t1 = 0, t4 = 0;
    nis[1]->onArrival(Lane::kRequest, [&] { t1 = eq.now(); });
    nis[10]->onArrival(Lane::kRequest, [&] { t4 = eq.now(); });
    ASSERT_EQ(torus.routing().hopCount(0, 1), 1u);
    ASSERT_EQ(torus.routing().hopCount(0, 10), 4u);
    nis[0]->trySend(mkMsg(0, 1));
    nis[0]->trySend(mkMsg(0, 10));
    eq.run();
    EXPECT_GT(t4, t1);
    EXPECT_NEAR(sim::ticksToNs(t4 - t1) / sim::ticksToNs(t1), 3.0, 0.4);
}

TEST_F(TorusFixture, AllPairsDeliver)
{
    int received = 0;
    for (auto &ni : nis) {
        auto *p = ni.get();
        p->onArrival(Lane::kRequest, [&received, p] {
            while (p->hasMessage(Lane::kRequest)) {
                p->pop(Lane::kRequest);
                ++received;
            }
        });
    }
    int sent = 0;
    for (sim::NodeId a = 0; a < 16; ++a) {
        for (sim::NodeId b = 0; b < 16; ++b) {
            if (a == b)
                continue;
            ASSERT_TRUE(nis[a]->trySend(mkMsg(a, b)));
            ++sent;
        }
    }
    eq.run();
    EXPECT_EQ(received, sent);
    EXPECT_GT(torus.meanHops(), 1.9); // 4x4 torus mean distance = 2
    EXPECT_LT(torus.meanHops(), 2.2);
}

TEST_F(TorusFixture, FailedNodeDrops)
{
    torus.failNode(5);
    nis[0]->trySend(mkMsg(0, 5));
    eq.run();
    EXPECT_FALSE(nis[5]->hasMessage(Lane::kRequest));
    EXPECT_GT(torus.droppedMessages(), 0u);
}

} // namespace
