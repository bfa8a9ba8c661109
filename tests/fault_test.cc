/**
 * @file
 * Fault-injection tests: FaultPlan and routing-mode parsing (grammar +
 * did-you-mean), FaultInjector arm-time validation, fault-aware
 * adaptive torus routing (100% delivery around a failed link), per-port
 * link state on a radix-2 ring, lossy windows, and end-to-end
 * degraded-mode runs through the SweepDriver (recovery by RMC
 * retransmission alone, determinism, a fault that touches no traffic
 * costing nothing, and the permanent-fault stall diagnostic).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/sweep.hh"
#include "fabric/crossbar.hh"
#include "fabric/fault.hh"
#include "fabric/router.hh"
#include "fabric/torus.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace {

using namespace sonuma;
using namespace sonuma::fab;
using sim::EventQueue;
using sim::StatRegistry;

//
// ----------------------------- parsing ---------------------------------
//

FaultPlan
mustParse(const std::string &spec, std::uint32_t nodes = 16)
{
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(spec, nodes, &plan, &error))
        << spec << ": " << error;
    return plan;
}

std::string
parseError(const std::string &spec, std::uint32_t nodes = 16)
{
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(spec, nodes, &plan, &error)) << spec;
    return error;
}

TEST(FaultPlanParse, HealthyScenariosAreEmptyPlans)
{
    EXPECT_TRUE(mustParse("none").empty());
    // incast is a workload-level traffic pattern, not a fabric fault.
    EXPECT_TRUE(mustParse("incast").empty());
}

TEST(FaultPlanParse, NodeKillDefaultsVictimToMiddleNode)
{
    const FaultPlan plan = mustParse("node-kill@50us", 16);
    ASSERT_EQ(plan.events().size(), 1u);
    EXPECT_EQ(plan.events()[0].kind, FaultEventKind::kNodeKill);
    EXPECT_EQ(plan.events()[0].at, sim::usToTicks(50));
    EXPECT_EQ(plan.events()[0].a, 8); // nodes / 2
}

TEST(FaultPlanParse, NodeKillWithDurationAndVictim)
{
    const FaultPlan plan = mustParse("node-kill@50us+100us:3");
    ASSERT_EQ(plan.events().size(), 2u);
    EXPECT_EQ(plan.events()[0].kind, FaultEventKind::kNodeKill);
    EXPECT_EQ(plan.events()[0].a, 3);
    EXPECT_EQ(plan.events()[1].kind, FaultEventKind::kNodeRecover);
    EXPECT_EQ(plan.events()[1].a, 3);
    EXPECT_EQ(plan.events()[1].at, sim::usToTicks(150));
}

TEST(FaultPlanParse, LinkKillAndFlapAndDrop)
{
    const FaultPlan kill = mustParse("link-kill@10us:2-3");
    ASSERT_EQ(kill.events().size(), 1u);
    EXPECT_EQ(kill.events()[0].kind, FaultEventKind::kLinkKill);
    EXPECT_EQ(kill.events()[0].a, 2);
    EXPECT_EQ(kill.events()[0].b, 3);

    // 3 cycles = 3 kills + 3 recovers, half a period apart.
    const FaultPlan flap = mustParse("link-flap@40us~30usx3:0-1");
    EXPECT_EQ(flap.events().size(), 6u);
    const auto sorted = flap.sorted();
    EXPECT_EQ(sorted[0].kind, FaultEventKind::kLinkKill);
    EXPECT_EQ(sorted[0].at, sim::usToTicks(40));
    EXPECT_EQ(sorted[1].kind, FaultEventKind::kLinkRecover);
    EXPECT_EQ(sorted[1].at, sim::usToTicks(55));

    const FaultPlan drop = mustParse("drop@10us+30us:1-2");
    ASSERT_EQ(drop.events().size(), 2u);
    EXPECT_EQ(drop.events()[0].kind, FaultEventKind::kDropStart);
    EXPECT_EQ(drop.events()[1].kind, FaultEventKind::kDropEnd);
    EXPECT_EQ(drop.events()[1].at, sim::usToTicks(40));
}

TEST(FaultPlanParse, MisspelledScenarioGetsDidYouMean)
{
    EXPECT_NE(parseError("node-kil@50us").find("did you mean 'node-kill'"),
              std::string::npos);
    EXPECT_NE(parseError("link-klil@50us").find("did you mean"),
              std::string::npos);
    // Far-off garbage lists the valid grammar instead of guessing.
    EXPECT_NE(parseError("explode@1us").find("valid:"), std::string::npos);
}

TEST(RoutingModeParse, MisspelledModeGetsDidYouMean)
{
    RoutingMode mode = RoutingMode::kDor;
    std::string error;
    ASSERT_TRUE(parseRoutingMode("adaptive", &mode, &error));
    EXPECT_EQ(mode, RoutingMode::kAdaptive);
    EXPECT_FALSE(parseRoutingMode("adaptiv", &mode, &error));
    EXPECT_NE(error.find("did you mean 'adaptive'"), std::string::npos)
        << error;
    EXPECT_FALSE(parseRoutingMode("minimal-oblivious", &mode, &error));
    EXPECT_NE(error.find("valid: dor, adaptive"), std::string::npos)
        << error;
}

TEST(FaultPlanParse, MalformedSpecsFailWithPreciseErrors)
{
    // Times require a unit suffix.
    EXPECT_NE(parseError("node-kill@50").find("unit suffix"),
              std::string::npos);
    // Bare scenarios take no arguments.
    EXPECT_NE(parseError("incast@5us").find("takes no"), std::string::npos);
    // Scheduled scenarios need a time.
    EXPECT_NE(parseError("node-kill").find("@<time>"), std::string::npos);
    // Flap needs period x cycles.
    EXPECT_FALSE(parseError("link-flap@40us").empty());
    EXPECT_FALSE(parseError("link-flap@40us~30usx0").empty());
    EXPECT_FALSE(parseError("").empty());
}

//
// ------------------------ arm-time validation ---------------------------
//

TEST(FaultInjector, ArmRejectsOutOfRangeNode)
{
    EventQueue eq;
    StatRegistry stats;
    CrossbarFabric xbar(eq, stats, CrossbarParams{});
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    for (sim::NodeId i = 0; i < 4; ++i)
        nis.push_back(std::make_unique<NetworkInterface>(
            eq, stats, "ini" + std::to_string(i), i, xbar));

    FaultPlan plan;
    plan.killNode(sim::usToTicks(1), 9);
    FaultInjector inj(eq, xbar, plan);
    EXPECT_THROW(inj.arm(), std::invalid_argument);
}

TEST(FaultInjector, ArmRejectsNonexistentTorusLink)
{
    EventQueue eq;
    StatRegistry stats;
    TorusParams p;
    p.dims = {4, 4};
    TorusFabric torus(eq, stats, p);

    // 0 and 5 are diagonal neighbors on a 4x4 torus: no direct link.
    FaultPlan plan;
    plan.killLink(sim::usToTicks(1), 0, 5);
    FaultInjector inj(eq, torus, plan);
    EXPECT_THROW(inj.arm(), std::invalid_argument);

    // 0 -> 1 is a real +x link; the same plan shape arms fine.
    FaultPlan good;
    good.killLink(sim::usToTicks(1), 0, 1);
    FaultInjector okInj(eq, torus, good);
    EXPECT_NO_THROW(okInj.arm());
    EXPECT_EQ(okInj.eventCount(), 1u);
}

//
// ------------------- fault-aware torus routing --------------------------
//

struct Torus444 : public ::testing::Test
{
    EventQueue eq;
    StatRegistry stats;
    std::unique_ptr<TorusFabric> torus;
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    int received = 0;

    void
    build(RoutingMode mode, std::vector<std::uint32_t> dims = {4, 4, 4})
    {
        TorusParams p;
        p.dims = std::move(dims);
        p.routing = mode;
        torus = std::make_unique<TorusFabric>(eq, stats, p);
        for (sim::NodeId i = 0; i < torus->routing().nodeCount(); ++i) {
            nis.push_back(std::make_unique<NetworkInterface>(
                eq, stats, "fni" + std::to_string(i), i, *torus));
            auto *ni = nis.back().get();
            ni->onArrival(Lane::kRequest, [this, ni] {
                while (ni->hasMessage(Lane::kRequest)) {
                    ni->pop(Lane::kRequest);
                    ++received;
                }
            });
        }
    }

    int
    sendAllPairs()
    {
        int sent = 0;
        const auto n = static_cast<sim::NodeId>(nis.size());
        for (sim::NodeId a = 0; a < n; ++a)
            for (sim::NodeId b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                Message m;
                m.op = Op::kReadReq;
                m.srcNid = a;
                m.dstNid = b;
                EXPECT_TRUE(nis[a]->trySend(m));
                ++sent;
            }
        return sent;
    }
};

TEST_F(Torus444, AdaptiveDelivers100PercentAroundFailedLink)
{
    build(RoutingMode::kAdaptive);
    torus->failLink(0, 1); // +x out of the origin
    const int sent = sendAllPairs();
    eq.run();
    EXPECT_EQ(received, sent) << "adaptive routing must detour every "
                                 "packet around a single failed link";
    EXPECT_EQ(torus->droppedMessages(), 0u);
}

TEST_F(Torus444, DorDropsOnFailedLinkAdaptiveDoesNot)
{
    build(RoutingMode::kDor);
    torus->failLink(0, 1);
    const int sent = sendAllPairs();
    eq.run();
    EXPECT_LT(received, sent);
    EXPECT_GT(torus->droppedMessages(), 0u);
    EXPECT_EQ(received + static_cast<int>(torus->droppedMessages()), sent)
        << "every undelivered packet must be counted dropped";
}

TEST_F(Torus444, RecoveredLinkCarriesTrafficAgain)
{
    build(RoutingMode::kDor);
    torus->failLink(0, 1);
    torus->recoverLink(0, 1);
    const int sent = sendAllPairs();
    eq.run();
    EXPECT_EQ(received, sent);
    EXPECT_EQ(torus->droppedMessages(), 0u);
}

TEST_F(Torus444, RadixTwoPortsReachingOneNeighbourKeepSeparateState)
{
    // On the radix-2 x ring of a 2x4 torus, ports +x and -x of node 0
    // both reach node 1. failLink(0, 1) and setLinkLossy(0, 1) name the
    // first of them (+x); the -x port must keep carrying traffic, so
    // every packet still takes a minimal path (a detour through the y
    // ring would add two hops).
    build(RoutingMode::kAdaptive, {2, 4});
    ASSERT_EQ(torus->routing().neighbor(0, 0), 1);
    ASSERT_EQ(torus->routing().neighbor(0, 1), 1);
    torus->failLink(0, 1);
    torus->setLinkLossy(0, 1, true);
    int sent = sendAllPairs();
    eq.run();
    EXPECT_EQ(received, sent) << "the -x port must carry 0 -> 1 traffic";
    EXPECT_EQ(torus->droppedMessages(), 0u);
    double minimalHops = 0;
    for (sim::NodeId a = 0; a < 8; ++a)
        for (sim::NodeId b = 0; b < 8; ++b)
            minimalHops += torus->routing().hopCount(a, b);
    EXPECT_DOUBLE_EQ(torus->meanHops(), minimalHops / sent);

    // Bring +x back while it is still lossy: adaptive routing prefers it
    // again (lowest productive port), and it loses what it carries.
    torus->recoverLink(0, 1);
    sent += sendAllPairs();
    eq.run();
    EXPECT_GT(torus->droppedMessages(), 0u);
    EXPECT_EQ(received + static_cast<int>(torus->droppedMessages()), sent);
}

TEST_F(Torus444, LossyWindowDropsSilently)
{
    build(RoutingMode::kDor);
    torus->setLinkLossy(0, 1, true);
    Message m;
    m.op = Op::kReadReq;
    m.srcNid = 0;
    m.dstNid = 1;
    ASSERT_TRUE(nis[0]->trySend(m));
    eq.run();
    EXPECT_EQ(received, 0);
    EXPECT_EQ(torus->droppedMessages(), 1u);

    torus->setLinkLossy(0, 1, false);
    ASSERT_TRUE(nis[0]->trySend(m));
    eq.run();
    EXPECT_EQ(received, 1);
}

//
// ------------- every lost packet leaves the pool ------------------------
//

TEST_F(Torus444, DropWindowLeavesNoPacketInThePool)
{
    // 0 -> 1 is the first hop of some paths and a middle hop of others,
    // so packets are lost both inside trySend and from a drain event.
    build(RoutingMode::kDor);
    torus->setLinkLossy(0, 1, true);
    const int sent = sendAllPairs();
    eq.run();
    EXPECT_GT(torus->droppedMessages(), 0u);
    EXPECT_EQ(received + static_cast<int>(torus->droppedMessages()), sent);
    EXPECT_EQ(torus->livePackets(), 0u);
}

TEST_F(Torus444, LossyFirstHopInsidePumpReentryReleasesEveryPacket)
{
    // Each packet is dropped inside tryInject's launch and its credit
    // re-enters pumpInject, which must still pop and release it once.
    build(RoutingMode::kDor);
    torus->setLinkLossy(0, 1, true);
    Message m;
    m.op = Op::kReadReq;
    m.srcNid = 0;
    m.dstNid = 1;
    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(nis[0]->trySend(m));
    EXPECT_EQ(nis[0]->injectDepth(Lane::kRequest), 0u);
    EXPECT_EQ(torus->droppedMessages(), 40u);
    EXPECT_EQ(torus->livePackets(), 0u);
    eq.run();
    EXPECT_EQ(received, 0);
    EXPECT_EQ(torus->livePackets(), 0u);
}

TEST_F(Torus444, DeadDestinationSwallowedAtInjectLeavesNoPacket)
{
    build(RoutingMode::kDor);
    torus->failNode(5);
    Message m;
    m.op = Op::kReadReq;
    m.srcNid = 0;
    m.dstNid = 5;
    ASSERT_TRUE(nis[0]->trySend(m));
    m.srcNid = 5; // a dead source is swallowed the same way
    m.dstNid = 0;
    ASSERT_TRUE(nis[5]->trySend(m));
    EXPECT_EQ(torus->droppedMessages(), 2u);
    EXPECT_EQ(torus->livePackets(), 0u);
    eq.run();
    EXPECT_EQ(received, 0);
}

TEST_F(Torus444, NodeKillFlushesParkedPacketsOutOfThePool)
{
    // Node 5 stops draining: its 16-deep eject queue fills and the rest
    // park. Killing it drops the parked packets; the ones already in
    // its eject queue leave the pool when it is drained.
    build(RoutingMode::kDor);
    nis[5]->onArrival(Lane::kRequest, [] {});
    Message m;
    m.op = Op::kReadReq;
    m.dstNid = 5;
    int sent = 0;
    for (sim::NodeId src : {0, 1, 4, 6, 9}) {
        m.srcNid = src;
        for (int i = 0; i < 8; ++i, ++sent)
            ASSERT_TRUE(nis[src]->trySend(m));
    }
    eq.run();
    const std::size_t ejected = nis[5]->ejectDepth(Lane::kRequest);
    ASSERT_EQ(ejected, 16u);
    EXPECT_EQ(torus->livePackets(), static_cast<std::size_t>(sent));
    torus->failNode(5);
    EXPECT_EQ(torus->droppedMessages(), sent - ejected);
    EXPECT_EQ(torus->livePackets(), ejected);
    while (nis[5]->hasMessage(Lane::kRequest))
        nis[5]->pop(Lane::kRequest);
    eq.run();
    EXPECT_EQ(torus->livePackets(), 0u);
}

//
// --------------------- end-to-end degraded runs -------------------------
//

app::SweepConfig
degradedConfig(const std::string &faultSpec)
{
    app::SweepConfig cfg;
    cfg.opsPerNode = 24;
    cfg.faultSpec = faultSpec;
    cfg.echo = false;
    return cfg;
}

/** A cell's JSON with the host_seconds wall-clock field stripped. */
std::string
jsonSansHostSeconds(const app::SweepCellResult &cell)
{
    const std::string s = cell.json();
    return s.substr(0, s.find("\"host_seconds\""));
}

TEST(DegradedRun, NodeKillRecoverCompletesWithExactAccounting)
{
    // The victim dies inside the run and comes back 40 us later, well
    // within the default attempt budget. Nobody is notified: the
    // victim's and its peers' lost packets time out and are
    // retransmitted, and every op completes exactly once.
    app::SweepDriver driver(degradedConfig("node-kill@2us+40us"));
    const auto cell =
        driver.runCell(16, node::Topology::kTorus, 64, 16);
    EXPECT_GT(cell.droppedMessages, 0u) << "the kill window must bite";
    EXPECT_GT(cell.retransmits, 0u) << "recovery never ran";
    EXPECT_EQ(cell.unrecoverable, 0u);
    EXPECT_EQ(cell.failedOps, 0u);
    EXPECT_EQ(cell.okOps, cell.ops) << "ops lost despite retransmission";
    EXPECT_TRUE(cell.degraded());
}

TEST(DegradedRun, DropWindowRecoversAllOpsViaRetransmission)
{
    // Every packet lost in the silent drop window must be recovered by
    // the RMC's timeout-driven retransmission: nothing is lost, and the
    // drops-vs-lost-ops audit (ok + unrecoverable == ops, checked
    // fatally inside runCell for drop cells) closes.
    app::SweepDriver driver(degradedConfig("drop@1us+20us"));
    const auto cell =
        driver.runCell(16, node::Topology::kTorus, 64, 16);
    EXPECT_GT(cell.droppedMessages, 0u) << "the drop window must bite";
    EXPECT_GT(cell.retransmits, 0u) << "recovery never ran";
    EXPECT_EQ(cell.unrecoverable, 0u);
    EXPECT_EQ(cell.okOps, cell.ops) << "ops lost despite retransmission";
    EXPECT_TRUE(cell.degraded());
}

TEST(DegradedRun, FaultThatTouchesNoTrafficCostsNothing)
{
    // A link that dies long after the run ends drops nothing, so the
    // cell must time exactly like the healthy one: a fault costs only
    // the retransmissions it causes.
    app::SweepDriver healthy(degradedConfig("none"));
    app::SweepDriver late(degradedConfig("link-kill@1ms"));
    const auto h = healthy.runCell(16, node::Topology::kTorus, 64, 16);
    const auto f = late.runCell(16, node::Topology::kTorus, 64, 16);
    ASSERT_TRUE(f.degraded());
    EXPECT_EQ(f.droppedMessages, 0u);
    EXPECT_EQ(f.retransmits, 0u);
    EXPECT_EQ(f.okOps, f.ops);
    EXPECT_EQ(f.simMicros, h.simMicros);
    EXPECT_EQ(f.mops, h.mops);
    EXPECT_EQ(f.meanLatencyNs, h.meanLatencyNs);
    EXPECT_EQ(f.p50LatencyNs, h.p50LatencyNs);
    EXPECT_EQ(f.p99LatencyNs, h.p99LatencyNs);
}

TEST(DegradedRun, SameSeedIsByteIdentical)
{
    // The link flaps inside the run; retransmission carries every op.
    const std::string spec = "link-flap@1us~2usx3:0-1";
    app::SweepDriver a(degradedConfig(spec));
    app::SweepDriver b(degradedConfig(spec));
    const auto ca = a.runCell(16, node::Topology::kTorus, 64, 16);
    const auto cb = b.runCell(16, node::Topology::kTorus, 64, 16);
    EXPECT_GT(ca.droppedMessages, 0u) << "the flaps must bite";
    EXPECT_EQ(ca.okOps, ca.ops);
    EXPECT_EQ(jsonSansHostSeconds(ca), jsonSansHostSeconds(cb))
        << "same seed + same fault plan must replay bit-identically";
    EXPECT_EQ(ca.simMicros, cb.simMicros);
    EXPECT_EQ(ca.droppedMessages, cb.droppedMessages);
}

TEST(DegradedRun, AdaptiveRoutingRidesOutLinkKillWithoutRetransmits)
{
    // Adaptive detours mean no packet ever meets the dead link.
    auto cfg = degradedConfig("link-kill@1us");
    cfg.routing = RoutingMode::kAdaptive;
    app::SweepDriver driver(cfg);
    const auto cell =
        driver.runCell(16, node::Topology::kTorus, 64, 16);
    EXPECT_EQ(cell.okOps, cell.ops);
    EXPECT_EQ(cell.droppedMessages, 0u);
    EXPECT_EQ(cell.retransmits, 0u);
}

TEST(DegradedRun, PermanentNodeKillSurfacesStallDiagnostic)
{
    // No recovery event: the dead node can never announce its barrier
    // arrival and every transfer to or from it burns out its attempt
    // budget, so the simulation quiesces with coroutines suspended.
    // Workload::run turns that into a diagnostic instead of a hang.
    auto cfg = degradedConfig("node-kill@500ns");
    cfg.opsPerNode = 8;
    app::SweepDriver driver(cfg);
    EXPECT_THROW(driver.runCell(4, node::Topology::kTorus, 64, 16),
                 std::runtime_error);
}

TEST(DegradedRun, FaultPlanIsCheckedForEveryNodeCountBeforeAnyCell)
{
    // Node 8 exists in the 16-node cell but not in the 4-node one: the
    // driver must reject the plan before it runs, prints or writes the
    // 16-node cell.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "sonuma_fault_plan_node_counts";
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto cfg = degradedConfig("node-kill@10us+20us:8");
    cfg.nodeCounts = {16, 4};
    cfg.opsPerNode = 8;
    cfg.outDir = dir.string();
    app::SweepDriver driver(cfg);
    EXPECT_THROW(driver.run(), std::invalid_argument);
    EXPECT_TRUE(fs::is_empty(dir)) << "a cell ran before the plan check";
    fs::remove_all(dir);
}

TEST(DegradedRun, AdaptiveOnCrossbarIsRejected)
{
    auto cfg = degradedConfig("none");
    cfg.routing = RoutingMode::kAdaptive;
    app::SweepDriver driver(cfg);
    EXPECT_THROW(driver.runCell(4, node::Topology::kCrossbar, 64, 16),
                 std::invalid_argument);
}

TEST(DegradedRun, HealthyCellJsonCarriesHealthyDefaults)
{
    app::SweepDriver driver(degradedConfig("none"));
    const auto cell =
        driver.runCell(4, node::Topology::kCrossbar, 64, 16);
    EXPECT_FALSE(cell.degraded());
    EXPECT_EQ(cell.okOps, cell.ops);
    // Every schema since 2: a healthy cell carries every degraded field
    // at its healthy default.
    const std::string json = cell.json();
    for (const char *field :
         {"\"fault_scenario\": \"none\"", "\"routing\": \"dor\"",
          "\"failed_ops\": 0,", "\"dropped_messages\": 0,",
          "\"retransmits\": 0,", "\"dup_suppressed\": 0,",
          "\"unrecoverable\": 0,"})
        EXPECT_NE(json.find(field), std::string::npos) << field << "\n"
                                                       << json;
    EXPECT_NE(json.find("\"ok_ops\": " + std::to_string(cell.ops) + ","),
              std::string::npos)
        << json;
}

} // namespace
