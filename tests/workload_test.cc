/**
 * @file
 * Workload runtime + SweepDriver tests: one coroutine per node with
 * built-in barrier alignment, per-node stat scoping, elapsed() timing,
 * and sweep cells emitting schema-stable JSON.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "api/workload.hh"
#include "app/sweep.hh"
#include "sim/json.hh"
#include "sim/simulation.hh"

namespace {

using namespace sonuma;
using api::ClusterSpec;
using api::TestBed;
using api::Workload;
using api::operator""_KiB;
using app::SweepConfig;
using app::SweepDriver;

TEST(WorkloadTest, RunsBodyOnEveryNodeWithBarrierAlignment)
{
    TestBed bed(ClusterSpec{}.nodes(4).segmentPerNode(64_KiB).seed(21));
    Workload wl(bed);

    std::vector<sim::Tick> bodyStart(4, 0);
    int ran = 0;
    wl.onEachNode([&](Workload::NodeCtx &ctx) -> sim::Task {
        bodyStart[ctx.nodeId()] = ctx.sim().now();
        ++ran;
        // Do some real remote traffic from every node.
        auto &s = ctx.session();
        const vm::VAddr buf = s.allocBuffer(64);
        const auto peer =
            static_cast<sim::NodeId>((ctx.nodeId() + 1) % ctx.nodes());
        const api::OpResult r =
            co_await s.read(peer, ctx.dataOffset(), buf, 64);
        EXPECT_TRUE(r.ok());
        ctx.counter("reads").inc();
    });
    wl.run();

    EXPECT_EQ(ran, 4);
    EXPECT_GT(wl.elapsed(), 0u);
    // The start barrier aligns all bodies to (nearly) the same tick:
    // every body starts after the last arrival.
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_GT(bodyStart[i], 0u);
    // Per-node scoped counters exist and read back.
    for (std::uint32_t i = 0; i < 4; ++i) {
        const auto *c = bed.sim().stats().counter(
            "workload.node" + std::to_string(i) + ".reads");
        ASSERT_NE(c, nullptr) << i;
        EXPECT_EQ(c->value(), 1u);
    }
}

TEST(WorkloadTest, MidWorkloadBarrierKeepsNodesInLockstep)
{
    TestBed bed(ClusterSpec{}.nodes(3).segmentPerNode(64_KiB).seed(22));
    Workload wl(bed);
    std::vector<int> phase(3, 0);
    wl.onEachNode([&](Workload::NodeCtx &ctx) -> sim::Task {
        for (int r = 0; r < 4; ++r) {
            // Uneven compute, then barrier: nobody may be a full phase
            // ahead after the barrier.
            co_await sim::Delay(ctx.sim().eq(),
                                sim::usToTicks(1 + ctx.nodeId()));
            phase[ctx.nodeId()] = r;
            co_await ctx.barrier();
            for (int n = 0; n < 3; ++n)
                EXPECT_GE(phase[static_cast<std::size_t>(n)], r);
        }
    });
    wl.run();
}

TEST(WorkloadTest, RejectsSegmentsSmallerThanBarrierRegion)
{
    // 64 nodes * 64 B = 4 KiB barrier region > 1 KiB segment.
    TestBed bed(ClusterSpec{}.nodes(2).segmentPerNode(1_KiB).seed(23));
    (void)bed;
    TestBed small(ClusterSpec{}.nodes(2).segmentPerNode(64).seed(24));
    EXPECT_THROW(Workload wl(small), std::invalid_argument);
}

TEST(SweepDriverTest, TorusFactorizationIsNearSquare)
{
    EXPECT_EQ(SweepDriver::torusDimsFor(64),
              (std::vector<std::uint32_t>{8, 8}));
    EXPECT_EQ(SweepDriver::torusDimsFor(32),
              (std::vector<std::uint32_t>{4, 8}));
    EXPECT_EQ(SweepDriver::torusDimsFor(16),
              (std::vector<std::uint32_t>{4, 4}));
    EXPECT_EQ(SweepDriver::torusDimsFor(7),
              (std::vector<std::uint32_t>{1, 7}));
}

TEST(SweepDriverTest, CellMeasuresAndRendersSchemaStableJson)
{
    SweepConfig cfg;
    cfg.opsPerNode = 16;
    cfg.segmentBytes = 64_KiB;
    cfg.echo = false;
    SweepDriver driver(cfg);
    const auto cell = driver.runCell(4, node::Topology::kTorus, 64, 16);

    EXPECT_EQ(cell.nodes, 4u);
    EXPECT_EQ(cell.qpDepth, 16u);
    EXPECT_EQ(cell.ops, 4u * 16u);
    EXPECT_GT(cell.mops, 0.0);
    EXPECT_GT(cell.gbps, 0.0);
    EXPECT_GT(cell.meanLatencyNs, 100.0); // a remote read is ~300 ns
    EXPECT_GE(cell.p99LatencyNs, cell.meanLatencyNs);
    EXPECT_GT(cell.simMicros, 0.0);
    EXPECT_EQ(cell.label(), "n4_torus_2x2_rs64_qd16");

    const std::string json = cell.json();
    EXPECT_NE(json.find("\"schema\": " +
                        std::to_string(sim::kArtifactSchema) + ","),
              std::string::npos)
        << json;
    for (const char *key :
         {"\"bench\": \"sweep\"", "\"nodes\": 4",
          "\"topology\": \"torus_2x2\"", "\"request_bytes\": 64",
          "\"qp_depth\": 16", "\"ops\": 64", "\"mops\": ",
          "\"mean_latency_ns\": ", "\"sim_us\": "})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(SweepDriverTest, MatrixRunsEveryCellDeterministically)
{
    SweepConfig cfg;
    cfg.nodeCounts = {2, 4};
    cfg.requestSizes = {64, 256};
    cfg.qpDepths = {16};
    cfg.topologies = {node::Topology::kCrossbar};
    cfg.opsPerNode = 8;
    cfg.segmentBytes = 64_KiB;
    cfg.echo = false;

    auto a = SweepDriver(cfg).run();
    auto b = SweepDriver(cfg).run();
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(b.size(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label(), b[i].label());
        // Same seed, same cell -> identical simulated timeline.
        EXPECT_EQ(a[i].simMicros, b[i].simMicros) << a[i].label();
        EXPECT_EQ(a[i].meanLatencyNs, b[i].meanLatencyNs);
    }
    // Bigger requests move more bytes per op: gbps must rise with size
    // at fixed depth.
    EXPECT_GT(a[1].gbps, a[0].gbps);
}

TEST(SweepDriverTest, TorusFactorizationIsNearCubicIn3d)
{
    EXPECT_EQ(SweepDriver::torusDimsFor(8, 3),
              (std::vector<std::uint32_t>{2, 2, 2}));
    EXPECT_EQ(SweepDriver::torusDimsFor(64, 3),
              (std::vector<std::uint32_t>{4, 4, 4}));
    EXPECT_EQ(SweepDriver::torusDimsFor(256, 3),
              (std::vector<std::uint32_t>{4, 8, 8}));
    EXPECT_EQ(SweepDriver::torusDimsFor(512, 3),
              (std::vector<std::uint32_t>{8, 8, 8}));
    // The 2-dim overloads agree.
    EXPECT_EQ(SweepDriver::torusDimsFor(64, 2),
              SweepDriver::torusDimsFor(64));
}

TEST(SweepDriverTest, ExplicitTorusDimsReachTheCell)
{
    SweepConfig cfg;
    cfg.torusDims = {2, 2, 2};
    cfg.opsPerNode = 8;
    cfg.segmentBytes = 64_KiB;
    cfg.echo = false;
    const auto cell =
        SweepDriver(cfg).runCell(8, node::Topology::kTorus, 64, 16);
    EXPECT_EQ(cell.topologyName(), "torus_2x2x2");
    // Dims that don't multiply to the node count throw eagerly with the
    // offending vector in the message (ClusterParams validation).
    cfg.torusDims = {2, 2};
    try {
        SweepDriver(cfg).runCell(8, node::Topology::kTorus, 64, 16);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("2x2"), std::string::npos)
            << e.what();
    }
}

TEST(SweepDriverTest, UnknownWorkloadListsRegisteredNames)
{
    SweepConfig cfg;
    cfg.workload = "nonesuch";
    try {
        SweepDriver(cfg).runCell(4, node::Topology::kCrossbar, 64, 16);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("uniform"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("pagerank"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SweepDriverTest, PageRankWorkloadCellRunsAndVerifies)
{
    SweepConfig cfg;
    cfg.workload = "pagerank";
    cfg.pagerank.vertices = 512;
    cfg.pagerank.degree = 4;
    cfg.pagerank.supersteps = 2; // exercises both rank parities
    cfg.echo = false;
    const auto cell = SweepDriver(cfg).runCell(
        8, node::Topology::kTorus, 64, 16);

    // finish() fatals if the simulated ranks diverge from the host
    // reference, so a returned cell is a verified cell.
    EXPECT_EQ(cell.workload, "pagerank");
    EXPECT_EQ(cell.topologyName(), "torus_2x4"); // 2D default
    EXPECT_GT(cell.ops, 512u);  // remote ops ~ cross-partition edges
    EXPECT_GT(cell.mops, 0.0);
    EXPECT_GT(cell.meanLatencyNs, 100.0);
    EXPECT_GT(cell.simMicros, 0.0);
    EXPECT_EQ(cell.label(), "n8_torus_2x4_rs64_qd16_pagerank");

    const std::string json = cell.json();
    for (const char *key :
         {"\"workload\": \"pagerank\"", "\"vertices\": 512",
          "\"edges\": 2048", "\"supersteps\": 2",
          "\"cross_edge_fraction\": "})
        EXPECT_NE(json.find(key), std::string::npos) << key << "\n"
                                                     << json;
}

TEST(SweepDriverTest, PageRankCellHonorsQpCountAxis)
{
    SweepConfig cfg;
    cfg.workload = "pagerank";
    cfg.pagerank.vertices = 256;
    cfg.pagerank.degree = 4;
    cfg.echo = false;
    const auto qp1 = SweepDriver(cfg).runCell(
        4, node::Topology::kCrossbar, 64, 8, 1);
    const auto qp4 = SweepDriver(cfg).runCell(
        4, node::Topology::kCrossbar, 64, 8, 4);
    EXPECT_EQ(qp4.label(), "n4_crossbar_rs64_qd8_qp4_pagerank");
    // Same graph, same remote-op count; 4 QPs give the fine-grain
    // window 4x the in-flight capacity, so the superstep cannot be
    // slower than the 8-deep single-QP run.
    EXPECT_EQ(qp1.ops, qp4.ops);
    EXPECT_LE(qp4.simMicros, qp1.simMicros);
}

} // namespace
