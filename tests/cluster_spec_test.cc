/**
 * @file
 * ClusterSpec / TestBed tests: eager validation of bad configurations
 * (torus dims vs node count, zero nodes, cache geometry), declarative construction of
 * crossbar and torus beds, session caching, and qpDepth plumbing down
 * to the queue pairs.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/testbed.hh"
#include "fabric/fault.hh"
#include "fabric/router.hh"
#include "sim/simulation.hh"

namespace {

using namespace sonuma;
using api::ClusterSpec;
using api::TestBed;
using api::operator""_KiB;
using api::operator""_MiB;

TEST(ClusterParamsValidation, TorusDimsMustMultiplyToNodeCount)
{
    sim::Simulation sim(1);
    node::ClusterParams p;
    p.nodes = 16;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {4, 3}; // 12 != 16
    try {
        node::Cluster cluster(sim, p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        // The message names both the dims and the node count.
        EXPECT_NE(msg.find("4x3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("16"), std::string::npos) << msg;
    }
}

TEST(ClusterParamsValidation, ZeroNodesRejected)
{
    sim::Simulation sim(1);
    node::ClusterParams p;
    p.nodes = 0;
    EXPECT_THROW(node::Cluster cluster(sim, p), std::invalid_argument);
}

TEST(ClusterParamsValidation, ZeroRadixAndEmptyDimsRejected)
{
    node::ClusterParams p;
    p.nodes = 8;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {};
    EXPECT_THROW(node::validate(p), std::invalid_argument);
    p.torus.dims = {8, 0};
    EXPECT_THROW(node::validate(p), std::invalid_argument);
}

TEST(ClusterParamsValidation, Bad3dDimsNameTheOffendingVector)
{
    node::ClusterParams p;
    p.nodes = 256;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {8, 8, 8}; // 512 != 256
    try {
        node::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("8x8x8"), std::string::npos) << msg;
        EXPECT_NE(msg.find("512"), std::string::npos) << msg;
        EXPECT_NE(msg.find("256"), std::string::npos) << msg;
    }
}

TEST(ClusterParamsValidation, ZeroRadixMessagePrintsTheDimsVector)
{
    node::ClusterParams p;
    p.nodes = 64;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {8, 0, 8};
    try {
        node::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("8x0x8"), std::string::npos)
            << e.what();
    }
}

TEST(ClusterParamsValidation, RadixOneRingIsRejected)
{
    // A radix-1 dimension would give each node ports that loop back to
    // itself, which adaptive misrouting could pick.
    node::ClusterParams p;
    p.nodes = 8;
    p.topology = node::Topology::kTorus;
    p.torus.dims = {1, 8};
    try {
        node::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "ClusterParams: torus dims 1x8 contain a radix of 1; "
                     "every dimension needs radix >= 2, since a radix-1 "
                     "ring has no link");
    }
    p.torus.dims = {2, 4};
    EXPECT_NO_THROW(node::validate(p));
}

TEST(ClusterParamsValidation, DeriveCapacitiesScalesIttAndEjectRing)
{
    node::ClusterParams p;
    // Table 1 defaults must be a strict no-op (fig7 byte-identity).
    node::ClusterParams defaults = p;
    node::deriveCapacities(defaults);
    EXPECT_EQ(defaults.node.rmc.maxTids, p.node.rmc.maxTids);
    EXPECT_EQ(defaults.node.ni.ejectQueueDepth, p.node.ni.ejectQueueDepth);

    // A deep multi-QP window gets a tid per WQ slot...
    p.node.rmc.qpCount = 4;
    p.node.rmc.qpEntries = 64;
    // ...and a 512-node rack gets incast-depth eject rings.
    p.nodes = 512;
    node::deriveCapacities(p);
    EXPECT_EQ(p.node.rmc.maxTids, 256u);
    EXPECT_EQ(p.node.ni.ejectQueueDepth, 128u);
}

TEST(ClusterSpecTest, Torus3dBedBuildsAndValidates)
{
    using api::operator""_KiB;
    // {2, 2, 2} = 8 nodes builds; a wrong product throws eagerly.
    api::TestBed bed(api::ClusterSpec{}
                         .nodes(8)
                         .torus(2, 2, 2)
                         .segmentPerNode(64_KiB));
    EXPECT_EQ(bed.nodes(), 8u);
    EXPECT_THROW(api::ClusterSpec{}.nodes(8).torus(2, 2, 4).resolve(),
                 std::invalid_argument);
}

TEST(RmcParamsValidation, ZeroAndAbsurdQpConfigsRejectedEagerly)
{
    // qpCount = 0: no queue pair to post on.
    rmc::RmcParams p;
    p.qpCount = 0;
    try {
        rmc::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("qpCount"),
                  std::string::npos)
            << e.what();
    }

    // qpCount beyond the Context Table's per-context capacity.
    p = rmc::RmcParams{};
    p.qpCount = p.maxQpsPerContext + 1;
    try {
        rmc::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("maxQpsPerContext"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(p.qpCount)), std::string::npos)
            << msg;
    }

    // qpEntries = 0 and qpEntries beyond the CQ's 16-bit wqIndex.
    p = rmc::RmcParams{};
    p.qpEntries = 0;
    EXPECT_THROW(rmc::validate(p), std::invalid_argument);
    p.qpEntries = 65537;
    try {
        rmc::validate(p);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("65536"), std::string::npos)
            << e.what();
    }

    // rgpQpBurst = 0 would stall the arbitration rotation forever.
    p = rmc::RmcParams{};
    p.rgpQpBurst = 0;
    EXPECT_THROW(rmc::validate(p), std::invalid_argument);

    // The defaults and both presets are valid.
    EXPECT_NO_THROW(rmc::validate(rmc::RmcParams{}));
    EXPECT_NO_THROW(rmc::validate(rmc::RmcParams::simulatedHardware()));
    EXPECT_NO_THROW(rmc::validate(rmc::RmcParams::emulationPlatform()));
}

TEST(RmcParamsValidation, ClusterBuildChecksRmcParams)
{
    // The check fires on every cluster construction path, TestBed
    // included, before any node is built.
    sim::Simulation sim(1);
    node::ClusterParams p;
    p.node.rmc.qpCount = 0;
    EXPECT_THROW(node::Cluster cluster(sim, p), std::invalid_argument);
    EXPECT_THROW(TestBed bed(ClusterSpec{}.nodes(2).qpCount(0)),
                 std::invalid_argument);
}

/** The validation message for @p p, or "" if validate accepts it. */
std::string
rejection(const node::ClusterParams &p)
{
    try {
        node::validate(p);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(CacheGeometryValidation, EachBadFieldIsNamed)
{
    // An L1 smaller than one 2-way set (128 B) would index zero sets.
    node::ClusterParams p;
    p.node.l1.sizeBytes = 64;
    EXPECT_EQ(rejection(p),
              "NodeParams: l1.sizeBytes 64 is not a non-zero whole "
              "number of 128 B sets (assoc 2 x 64 B lines)");

    p = node::ClusterParams{};
    p.node.l2.sizeBytes = 0;
    EXPECT_EQ(rejection(p),
              "NodeParams: l2.sizeBytes 0 is not a non-zero whole number "
              "of 1024 B sets (assoc 16 x 64 B lines)");

    // A partial set: 4 MiB + one line.
    p = node::ClusterParams{};
    p.node.l2.sizeBytes = (4u << 20) + 64;
    EXPECT_NE(rejection(p).find("l2.sizeBytes 4194368"), std::string::npos)
        << rejection(p);

    p = node::ClusterParams{};
    p.node.l1.assoc = 0;
    EXPECT_EQ(rejection(p), "NodeParams: l1.assoc must be >= 1 (got 0)");

    p = node::ClusterParams{};
    p.node.l2.assoc = 0;
    EXPECT_EQ(rejection(p), "NodeParams: l2.assoc must be >= 1 (got 0)");

    p = node::ClusterParams{};
    p.node.l1.mshrs = 0;
    EXPECT_EQ(rejection(p),
              "NodeParams: l1.mshrs must be >= 1 (got 0); every L1 miss "
              "needs an MSHR to start its transaction");

    // 31 cores + the RMC fill the 32-bit sharer mask; one more overflows.
    p = node::ClusterParams{};
    p.node.cores = 31;
    EXPECT_EQ(rejection(p), "");
    p.node.cores = 32;
    EXPECT_EQ(rejection(p),
              "NodeParams: cores 32 gives cores + 1 = 33 L1s on one L2 "
              "(one per core plus the RMC's), more than the 32 its "
              "directory's sharer mask can track");
}

TEST(CacheGeometryValidation, NonPowerOfTwoSetCountsAreValid)
{
    // SHM PageRank sizes its L2 at 4 MiB x threads: 3 threads give
    // 12288 sets, a whole number that is not a power of two.
    node::ClusterParams p;
    p.node.cores = 3;
    p.node.l2.sizeBytes = 3 * (4u << 20);
    EXPECT_EQ(rejection(p), "");
    p.node.l1.sizeBytes = 48 * 1024; // 384 two-way sets
    EXPECT_EQ(rejection(p), "");

    // The Cluster constructor runs the same check.
    sim::Simulation sim(1);
    p.node.l1.sizeBytes = 100;
    EXPECT_THROW(node::Cluster cluster(sim, p), std::invalid_argument);
}

TEST(ClusterSpecTest, QpCountReachesTheSession)
{
    TestBed bed(ClusterSpec{}
                    .nodes(2)
                    .qpDepth(8)
                    .qpCount(4)
                    .segmentPerNode(64_KiB));
    auto &s = bed.session(1);
    EXPECT_EQ(s.qpCount(), 4u);
    EXPECT_EQ(s.perQpDepth(), 8u);
    EXPECT_EQ(s.queueDepth(), 32u);
    EXPECT_FALSE(s.doorbellBatching());

    TestBed batched(ClusterSpec{}
                        .nodes(2)
                        .qpCount(2)
                        .doorbellBatching()
                        .segmentPerNode(64_KiB));
    EXPECT_TRUE(batched.session(1).doorbellBatching());

    // Per-session override: a software layer pins one QP regardless of
    // the node default (the Workload barrier convention).
    api::SessionParams one;
    one.qpCount = 1;
    one.doorbellBatching = false;
    auto &pinned = batched.newSession(1, 0, one);
    EXPECT_EQ(pinned.qpCount(), 1u);
    EXPECT_FALSE(pinned.doorbellBatching());
}

TEST(ClusterSpecTest, BuildFailsEagerlyOnBadTorus)
{
    EXPECT_THROW(TestBed bed(ClusterSpec{}.nodes(6).torus(2, 2)),
                 std::invalid_argument);
    EXPECT_THROW(TestBed bed(ClusterSpec{}.nodes(0)),
                 std::invalid_argument);
}

TEST(ClusterSpecTest, DeclarativeTorusBedMovesBytesAcrossHops)
{
    TestBed bed(ClusterSpec{}
                    .nodes(4)
                    .torus(2, 2)
                    .context(1)
                    .segmentPerNode(64_KiB)
                    .seed(13));
    EXPECT_EQ(bed.nodes(), 4u);
    bed.process(3).addressSpace().writeT<std::uint64_t>(
        bed.segBase(3) + 128, 0x70517051ULL);

    auto &s = bed.session(0);
    const vm::VAddr buf = s.allocBuffer(64);
    api::OpResult r;
    bed.spawn([](api::RmcSession *s, vm::VAddr buf,
                 api::OpResult *out) -> sim::Task {
        *out = co_await s->read(3, 128, buf, 64);
    }(&s, buf, &r));
    bed.run();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(bed.process(0).addressSpace().readT<std::uint64_t>(buf),
              0x70517051ULL);
}

TEST(ClusterSpecTest, SessionAccessorCachesPerNodeCore)
{
    TestBed bed(ClusterSpec{}.nodes(2).segmentPerNode(64_KiB));
    auto &a = bed.session(0);
    auto &b = bed.session(0);
    EXPECT_EQ(&a, &b); // same QP on repeat access
    auto &fresh = bed.newSession(0);
    EXPECT_NE(&a, &fresh); // explicit new QP
}

TEST(ClusterSpecTest, QpDepthReachesTheQueuePair)
{
    TestBed bed(
        ClusterSpec{}.nodes(2).segmentPerNode(64_KiB).qpDepth(16));
    EXPECT_EQ(bed.session(1).queueDepth(), 16u);

    // The 16-deep ring throttles the async window: outstanding ops can
    // never exceed the depth.
    auto &s = bed.session(1);
    const vm::VAddr buf = s.allocBuffer(64ull * 16);
    std::uint32_t maxOutstanding = 0;
    bed.spawn([](api::RmcSession *s, vm::VAddr buf,
                 std::uint32_t *maxOut) -> sim::Task {
        for (int i = 0; i < 100; ++i) {
            co_await s->readAsync(0, (std::uint64_t(i) % 64) * 64,
                                  buf + (std::uint64_t(i) % 16) * 64, 64);
            *maxOut = std::max(*maxOut, s->outstanding());
        }
        co_await s->drain();
    }(&s, buf, &maxOutstanding));
    bed.run();
    EXPECT_LE(maxOutstanding, 16u);
    EXPECT_GT(maxOutstanding, 4u); // but the window does fill
}

TEST(ClusterSpecTest, AdaptiveRoutingRequiresATorus)
{
    // Adaptive routing is a torus policy; on a crossbar the spec must
    // fail eagerly at build time, not silently route dor.
    EXPECT_THROW(TestBed(ClusterSpec{}
                             .nodes(4)
                             .segmentPerNode(64_KiB)
                             .routing(fab::RoutingMode::kAdaptive)),
                 std::invalid_argument);
    // On a torus it builds.
    TestBed bed(ClusterSpec{}
                    .nodes(4)
                    .torus(2, 2)
                    .segmentPerNode(64_KiB)
                    .routing(fab::RoutingMode::kAdaptive));
}

TEST(ClusterSpecTest, FaultPlanArmsAndFires)
{
    // A spec-level fault plan is validated and armed at build time and
    // its events fire on the bed's queue: a read posted while node 1 is
    // dead loses its request, and its retransmission after the
    // recovery completes it.
    fab::FaultPlan plan;
    plan.killNode(sim::usToTicks(1), 1);
    plan.recoverNode(sim::usToTicks(2), 1);
    TestBed bed(ClusterSpec{}
                    .nodes(2)
                    .segmentPerNode(64_KiB)
                    .faultPlan(plan));
    api::OpResult res;
    bed.spawn([](sim::Simulation *sim, api::RmcSession *s, vm::VAddr buf,
                 api::OpResult *out) -> sim::Task {
        co_await sim::Delay(sim->eq(), sim::nsToTicks(1500));
        *out = co_await s->read(1, 0, buf, 64);
    }(&bed.sim(), &bed.session(0), bed.session(0).allocBuffer(64), &res));
    bed.run();
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(bed.cluster().fabric().droppedMessages(), 1u);
    EXPECT_EQ(bed.sim().stats().counter("node0.rmc.retransmits")->value(),
              1u);

    // An out-of-range victim throws from the TestBed constructor.
    fab::FaultPlan bad;
    bad.killNode(sim::usToTicks(1), 7);
    EXPECT_THROW(TestBed(ClusterSpec{}
                             .nodes(2)
                             .segmentPerNode(64_KiB)
                             .faultPlan(bad)),
                 std::invalid_argument);
}

TEST(ClusterSpecTest, LiteralsAndPhysMemSizing)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(1_MiB, 1048576u);
    // A large segment auto-sizes physical memory (no PhysMem overflow).
    TestBed bed(ClusterSpec{}.nodes(2).segmentPerNode(128_MiB));
    EXPECT_EQ(bed.segBytes(), 128_MiB);
}

} // namespace
