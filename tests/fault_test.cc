/**
 * @file
 * Fault-injection tests: FaultPlan parsing (grammar + did-you-mean),
 * FaultInjector arm-time validation, fault-aware adaptive torus routing
 * (100% delivery around a failed link), lossy windows, failure
 * notifications with reasons, and end-to-end degraded-mode runs through
 * the SweepDriver (recovery, exact-once accounting, determinism, and
 * the permanent-fault stall diagnostic).
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
    build(RoutingMode mode)
    {
        TorusParams p;
        p.dims = {4, 4, 4};
        p.routing = mode;
        torus = std::make_unique<TorusFabric>(eq, stats, p);
        for (sim::NodeId i = 0; i < 64; ++i) {
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
        for (sim::NodeId a = 0; a < 64; ++a)
            for (sim::NodeId b = 0; b < 64; ++b) {
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
    // Silent: lossy windows model in-flight corruption, not topology
    // changes, so no failure notification fires.
    EXPECT_EQ(nis[0]->lastFailure().kind, FailureKind::kNone);

    torus->setLinkLossy(0, 1, false);
    ASSERT_TRUE(nis[0]->trySend(m));
    eq.run();
    EXPECT_EQ(received, 1);
}

TEST_F(Torus444, FailureNotificationsCarryReasons)
{
    build(RoutingMode::kDor);

    torus->failLink(2, 3);
    EXPECT_EQ(nis[0]->lastFailure().kind, FailureKind::kLinkDown);
    EXPECT_EQ(nis[0]->lastFailure().a, 2);
    EXPECT_EQ(nis[0]->lastFailure().b, 3);

    torus->recoverLink(2, 3);
    EXPECT_EQ(nis[0]->lastFailure().kind, FailureKind::kLinkUp);

    torus->failNode(7);
    EXPECT_EQ(nis[0]->lastFailure().kind, FailureKind::kNodeDown);
    EXPECT_EQ(nis[0]->lastFailure().a, 7);

    torus->recoverNode(7);
    EXPECT_EQ(nis[0]->lastFailure().kind, FailureKind::kNodeUp);
    EXPECT_EQ(nis[0]->lastFailure().a, 7);
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
    // maxAttempts = 1 pins the legacy fail-fast RMC: every timed-out
    // transfer aborts to software immediately, which is what this
    // test's workload-level retry accounting exercises. (With the
    // default retransmission budget the RMC would ride out the kill
    // window transparently and abortedOps would stay 0 — that path is
    // covered by the drop-window tests.)
    auto cfg = degradedConfig("node-kill@20us+40us");
    cfg.rmcParams.maxAttempts = 1;
    app::SweepDriver driver(cfg);
    const auto cell =
        driver.runCell(16, node::Topology::kTorus, 64, 16);

    // Traffic resumed after recovery: every op eventually completed
    // exactly once, and each aborted attempt is either a retry or a
    // terminal failure — nothing double-counted, nothing lost.
    EXPECT_EQ(cell.okOps + cell.failedOps, cell.ops);
    EXPECT_EQ(cell.abortedOps, cell.retriedOps + cell.failedOps);
    EXPECT_EQ(cell.failedOps, 0u) << "transient kill within the retry "
                                     "budget must lose no ops";
    EXPECT_GT(cell.abortedOps, 0u) << "the kill window must bite";
    EXPECT_GT(cell.droppedMessages, 0u);
    EXPECT_GT(cell.goodputMops, 0.0);
    EXPECT_TRUE(cell.degraded());
}

TEST(DegradedRun, DropWindowRecoversAllOpsViaRetransmission)
{
    // Workload-level retries off: every packet lost in the silent drop
    // window must be recovered by the RMC's timeout-driven
    // retransmission alone. Nothing aborts to software, nothing is
    // lost, and the drops-vs-lost-ops audit (ok + unrecoverable == ops,
    // checked fatally inside runCell for exactly this shape of cell)
    // closes.
    auto cfg = degradedConfig("drop@10us+60us");
    cfg.maxRetries = 0;
    app::SweepDriver driver(cfg);
    const auto cell =
        driver.runCell(16, node::Topology::kTorus, 64, 16);
    EXPECT_GT(cell.droppedMessages, 0u) << "the drop window must bite";
    EXPECT_GT(cell.retransmits, 0u) << "recovery never ran";
    EXPECT_EQ(cell.unrecoverable, 0u);
    EXPECT_EQ(cell.okOps, cell.ops) << "ops lost despite retransmission";
    EXPECT_EQ(cell.abortedOps, 0u)
        << "recovery must be invisible to the workload retry ladder";
    EXPECT_TRUE(cell.degraded());
}

TEST(DegradedRun, SameSeedIsByteIdentical)
{
    const std::string spec = "link-flap@10us~20usx3:0-1";
    app::SweepDriver a(degradedConfig(spec));
    app::SweepDriver b(degradedConfig(spec));
    const auto ca = a.runCell(16, node::Topology::kTorus, 64, 16);
    const auto cb = b.runCell(16, node::Topology::kTorus, 64, 16);
    EXPECT_EQ(jsonSansHostSeconds(ca), jsonSansHostSeconds(cb))
        << "same seed + same fault plan must replay bit-identically";
    EXPECT_EQ(ca.simMicros, cb.simMicros);
    EXPECT_EQ(ca.droppedMessages, cb.droppedMessages);
}

TEST(DegradedRun, AdaptiveRoutingRidesOutLinkKillWithoutRetries)
{
    auto cfg = degradedConfig("link-kill@10us");
    cfg.routing = RoutingMode::kAdaptive;
    app::SweepDriver driver(cfg);
    const auto cell =
        driver.runCell(16, node::Topology::kTorus, 64, 16);
    EXPECT_EQ(cell.okOps, cell.ops);
    EXPECT_EQ(cell.abortedOps, 0u)
        << "adaptive detours mean no op ever sees the dead link";
    EXPECT_EQ(cell.droppedMessages, 0u);
}

TEST(DegradedRun, PermanentNodeKillSurfacesStallDiagnostic)
{
    // No recovery event: the dead node can never announce its barrier
    // arrival and its peers' ops burn out their retry budgets, so the
    // simulation quiesces with coroutines suspended. The bounded
    // barrier re-announce guarantees quiescence (no livelock), and
    // Workload::run turns it into a diagnostic instead of a hang.
    auto cfg = degradedConfig("node-kill@20us");
    cfg.opsPerNode = 8;
    cfg.maxRetries = 2;
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
          "\"aborted_ops\": 0,", "\"retried_ops\": 0,",
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
