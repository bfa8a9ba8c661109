/**
 * @file
 * End-to-end integration tests: application -> access library -> QP ->
 * RGP -> fabric -> RRPP -> memory -> reply -> RCP -> CQ -> application.
 *
 * Verifies data integrity (real bytes move), latency plausibility,
 * multi-line unrolling, out-of-order completion, atomics, bounds/
 * permission errors, multi-QP operation, failure handling, request
 * lines fenced mid-unroll, byte-exact retransmission through a drop
 * window, and an unroll stopped by an unmapped local page, all on the
 * v2 awaitable API (OpResult / OpHandle).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <set>
#include <vector>

#include "api/session.hh"
#include "api/testbed.hh"
#include "node/cluster.hh"
#include "sim/simulation.hh"

namespace {

using namespace sonuma;
using api::OpHandle;
using api::OpResult;
using api::RmcSession;
using node::Cluster;
using node::ClusterParams;
using rmc::CqStatus;

/** Two-node cluster with a shared context and a registered segment. */
struct TwoNodeFixture : public ::testing::Test
{
    sim::Simulation sim{42};
    std::unique_ptr<Cluster> cluster;
    os::Process *serverProc = nullptr;
    os::Process *clientProc = nullptr;
    vm::VAddr segBase = 0;
    static constexpr std::uint64_t kSegBytes = 1 << 20;
    static constexpr sim::CtxId kCtx = 1;

    void
    SetUp() override
    {
        ClusterParams params;
        params.nodes = 2;
        cluster = std::make_unique<Cluster>(sim, params);
        cluster->createSharedContext(kCtx);

        // Node 0 is the "server": it registers a 1 MiB segment.
        serverProc = &cluster->node(0).os().createProcess(/*uid=*/1);
        segBase = serverProc->alloc(kSegBytes);
        cluster->node(0).driver().openContext(*serverProc, kCtx);
        cluster->node(0).driver().registerSegment(*serverProc, kCtx,
                                                  segBase, kSegBytes);

        // Node 1 is the "client".
        clientProc = &cluster->node(1).os().createProcess(/*uid=*/2);
    }

    RmcSession
    makeClientSession()
    {
        return RmcSession(cluster->node(1).core(0),
                          cluster->node(1).driver(), *clientProc, kCtx);
    }

    /** Fill the server segment with a recognizable pattern. */
    void
    fillSegment(std::uint64_t offset, std::uint32_t len, std::uint8_t seed)
    {
        std::vector<std::uint8_t> data(len);
        for (std::uint32_t i = 0; i < len; ++i)
            data[i] = static_cast<std::uint8_t>(seed + i * 7);
        serverProc->addressSpace().write(segBase + offset, data.data(),
                                         len);
    }
};

TEST_F(TwoNodeFixture, RemoteReadMovesRealBytes)
{
    auto session = makeClientSession();
    fillSegment(4096, 64, 0x11);
    const vm::VAddr buf = session.allocBuffer(64);

    OpResult result;
    sim.spawn([](RmcSession *s, vm::VAddr buf, OpResult *r) -> sim::Task {
        *r = co_await s->read(0, 4096, buf, 64);
    }(&session, buf, &result));
    sim.run();

    EXPECT_EQ(result.status, CqStatus::kOk);
    EXPECT_TRUE(result.ok());
    EXPECT_GT(result.latency, 0u);
    std::uint8_t got[64];
    clientProc->addressSpace().read(buf, got, 64);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(got[i], static_cast<std::uint8_t>(0x11 + i * 7)) << i;
}

TEST_F(TwoNodeFixture, RemoteReadLatencyWithinFourXOfLocalDram)
{
    auto session = makeClientSession();
    fillSegment(0, 64, 1);
    const vm::VAddr buf = session.allocBuffer(64);

    // Warm up once (TLB fills, CT$ fill), then measure. OpResult's
    // latency field must agree with wall-clock simulated time.
    double rttNs = 0, reportedNs = 0;
    sim.spawn([](sim::Simulation *sim, RmcSession *s, vm::VAddr buf,
                 double *rtt, double *reported) -> sim::Task {
        co_await s->read(0, 0, buf, 64);
        const sim::Tick t0 = sim->now();
        const OpResult r = co_await s->read(0, 64 * 100, buf, 64);
        *rtt = sim::ticksToNs(sim->now() - t0);
        *reported = sim::ticksToNs(r.latency);
    }(&sim, &session, buf, &rttNs, &reportedNs));
    sim.run();

    // Paper: ~300 ns remote read, within 4x of ~60-90 ns local DRAM.
    EXPECT_GT(rttNs, 150.0);
    EXPECT_LT(rttNs, 450.0);
    EXPECT_LE(reportedNs, rttNs);
    EXPECT_GT(reportedNs, 0.5 * rttNs);
}

TEST_F(TwoNodeFixture, RemoteWriteMovesRealBytes)
{
    auto session = makeClientSession();
    const vm::VAddr buf = session.allocBuffer(128);
    std::vector<std::uint8_t> data(128);
    for (int i = 0; i < 128; ++i)
        data[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(200 - i);
    clientProc->addressSpace().write(buf, data.data(), data.size());

    OpResult result;
    result.status = CqStatus::kFabricError;
    sim.spawn([](RmcSession *s, vm::VAddr buf, OpResult *r) -> sim::Task {
        *r = co_await s->write(0, 8192, buf, 128);
    }(&session, buf, &result));
    sim.run();

    EXPECT_TRUE(result.ok());
    std::uint8_t got[128];
    serverProc->addressSpace().read(segBase + 8192, got, 128);
    EXPECT_EQ(std::memcmp(got, data.data(), 128), 0);
}

TEST_F(TwoNodeFixture, MultiLineRequestUnrolls)
{
    auto session = makeClientSession();
    const std::uint32_t kLen = 8192; // 128 lines
    fillSegment(0, kLen, 0x42);
    const vm::VAddr buf = session.allocBuffer(kLen);

    OpResult result;
    sim.spawn([](RmcSession *s, vm::VAddr buf, OpResult *r) -> sim::Task {
        *r = co_await s->read(0, 0, buf, 8192);
    }(&session, buf, &result));
    sim.run();

    EXPECT_TRUE(result.ok());
    // One WQ entry, 128 request packets (unrolled at the source RGP).
    EXPECT_EQ(sim.stats().counter("node1.rmc.rgp.wqEntries")->value(), 1u);
    EXPECT_EQ(
        sim.stats().counter("node1.rmc.rgp.requestPackets")->value(),
        128u);
    // Full payload integrity.
    std::vector<std::uint8_t> got(kLen);
    clientProc->addressSpace().read(buf, got.data(), kLen);
    for (std::uint32_t i = 0; i < kLen; ++i)
        ASSERT_EQ(got[i], static_cast<std::uint8_t>(0x42 + i * 7)) << i;
}

TEST_F(TwoNodeFixture, AsyncReadsPipelineAndCompleteOutOfOrderSafely)
{
    auto session = makeClientSession();
    const int kOps = 200;
    fillSegment(0, 64 * kOps, 9);
    const vm::VAddr buf = session.allocBuffer(64 * kOps);

    int completions = 0;
    sim.spawn([](RmcSession *s, vm::VAddr buf, int *done) -> sim::Task {
        std::deque<OpHandle> window;
        for (int i = 0; i < kOps; ++i) {
            // Full window: retire the oldest before its slot recycles.
            while (window.size() >= s->queueDepth()) {
                EXPECT_TRUE((co_await window.front()).ok());
                window.pop_front();
                ++*done;
            }
            window.push_back(co_await s->readAsync(
                0, std::uint64_t(i) * 64, buf + std::uint64_t(i) * 64,
                64));
            while (!window.empty() && window.front().done()) {
                const OpResult r = co_await window.front();
                window.pop_front();
                EXPECT_TRUE(r.ok());
                ++*done;
            }
        }
        while (!window.empty()) {
            const OpResult r = co_await window.front();
            window.pop_front();
            EXPECT_TRUE(r.ok());
            ++*done;
        }
    }(&session, buf, &completions));
    sim.run();

    EXPECT_EQ(completions, kOps);
    EXPECT_EQ(session.outstanding(), 0u);
    // Data integrity across all 200 ops.
    std::vector<std::uint8_t> got(64 * kOps);
    clientProc->addressSpace().read(buf, got.data(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], static_cast<std::uint8_t>(9 + i * 7)) << i;
}

TEST_F(TwoNodeFixture, FetchAddIsAtomicAndReturnsOldValue)
{
    auto session = makeClientSession();
    serverProc->addressSpace().writeT<std::uint64_t>(segBase + 256, 100);

    std::uint64_t old1 = 0, old2 = 0;
    sim.spawn([](RmcSession *s, std::uint64_t *o1,
                 std::uint64_t *o2) -> sim::Task {
        const OpResult r1 = co_await s->fetchAdd(0, 256, 5);
        EXPECT_TRUE(r1.ok());
        *o1 = r1.oldValue;
        const OpResult r2 = co_await s->fetchAdd(0, 256, 7);
        EXPECT_TRUE(r2.ok());
        *o2 = r2.oldValue;
    }(&session, &old1, &old2));
    sim.run();

    EXPECT_EQ(old1, 100u);
    EXPECT_EQ(old2, 105u);
    EXPECT_EQ(serverProc->addressSpace().readT<std::uint64_t>(segBase + 256),
              112u);
}

TEST_F(TwoNodeFixture, CompareSwapSemantics)
{
    auto session = makeClientSession();
    serverProc->addressSpace().writeT<std::uint64_t>(segBase + 512, 42);

    std::uint64_t oldOk = 0, oldFail = 0;
    sim.spawn([](RmcSession *s, std::uint64_t *ok,
                 std::uint64_t *fail) -> sim::Task {
        *ok = (co_await s->compareSwap(0, 512, 42, 77)).oldValue;   // hits
        *fail = (co_await s->compareSwap(0, 512, 42, 99)).oldValue; // miss
    }(&session, &oldOk, &oldFail));
    sim.run();

    EXPECT_EQ(oldOk, 42u);
    EXPECT_EQ(oldFail, 77u);
    EXPECT_EQ(serverProc->addressSpace().readT<std::uint64_t>(segBase + 512),
              77u);
}

TEST_F(TwoNodeFixture, OutOfBoundsOffsetYieldsErrorCompletion)
{
    auto session = makeClientSession();
    const vm::VAddr buf = session.allocBuffer(64);

    OpResult result;
    sim.spawn([](RmcSession *s, vm::VAddr buf, OpResult *r) -> sim::Task {
        *r = co_await s->read(0, kSegBytes + 4096, buf, 64);
    }(&session, buf, &result));
    sim.run();

    EXPECT_EQ(result.status, CqStatus::kBoundsError);
    EXPECT_FALSE(result.ok());
    EXPECT_GT(sim.stats().counter("node0.rmc.rrpp.boundsErrors")->value(),
              0u);
}

TEST_F(TwoNodeFixture, StraddlingSegmentEndYieldsError)
{
    auto session = makeClientSession();
    const vm::VAddr buf = session.allocBuffer(128);
    OpResult result;
    // Last line is in bounds; the request extends one line past the end.
    sim.spawn([](RmcSession *s, vm::VAddr buf, OpResult *r) -> sim::Task {
        *r = co_await s->read(0, kSegBytes - 64, buf, 128);
    }(&session, buf, &result));
    sim.run();
    EXPECT_EQ(result.status, CqStatus::kBoundsError);
}

TEST_F(TwoNodeFixture, UnregisteredContextAtDestinationErrors)
{
    // Context 2 exists cluster-wide but node 0 never registered it.
    cluster->createSharedContext(2);
    RmcSession session(cluster->node(1).core(0), cluster->node(1).driver(),
                       *clientProc, 2);
    const vm::VAddr buf = session.allocBuffer(64);
    OpResult result;
    sim.spawn([](RmcSession *s, vm::VAddr buf, OpResult *r) -> sim::Task {
        *r = co_await s->read(0, 0, buf, 64);
    }(&session, buf, &result));
    sim.run();
    EXPECT_EQ(result.status, CqStatus::kBoundsError);
    EXPECT_GT(sim.stats().counter("node0.rmc.rrpp.badContext")->value(),
              0u);
}

TEST_F(TwoNodeFixture, OpeningContextWithoutPermissionThrows)
{
    cluster->registry().createContext(5, /*owner=*/40);
    auto &proc = cluster->node(1).os().createProcess(/*uid=*/41);
    EXPECT_THROW(cluster->node(1).driver().openContext(proc, 5),
                 os::PermissionError);
    cluster->registry().grant(5, 41);
    EXPECT_NO_THROW(cluster->node(1).driver().openContext(proc, 5));
}

TEST_F(TwoNodeFixture, BidirectionalTrafficBothDirections)
{
    // The server also reads from a segment registered at the client.
    auto clientSession = makeClientSession();
    const vm::VAddr clientSeg = clientProc->alloc(4096);
    cluster->node(1).driver().openContext(*clientProc, kCtx);
    cluster->node(1).driver().registerSegment(*clientProc, kCtx, clientSeg,
                                              4096);
    clientProc->addressSpace().writeT<std::uint64_t>(clientSeg, 0xabcd);

    RmcSession serverSession(cluster->node(0).core(0),
                             cluster->node(0).driver(), *serverProc, kCtx);
    fillSegment(0, 64, 3);

    const vm::VAddr cbuf = clientSession.allocBuffer(64);
    const vm::VAddr sbuf = serverSession.allocBuffer(64);
    OpResult r1, r2;
    sim.spawn([](RmcSession *s, vm::VAddr buf, OpResult *r) -> sim::Task {
        *r = co_await s->read(0, 0, buf, 64);
    }(&clientSession, cbuf, &r1));
    sim.spawn([](RmcSession *s, vm::VAddr buf, OpResult *r) -> sim::Task {
        *r = co_await s->read(1, 0, buf, 64);
    }(&serverSession, sbuf, &r2));
    sim.run();

    EXPECT_TRUE(r1.ok());
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(serverProc->addressSpace().readT<std::uint64_t>(sbuf),
              0xabcdu);
}

TEST_F(TwoNodeFixture, PermanentPeerDeathAbortsInFlightOpsOnceBudgetIsSpent)
{
    // Nobody tells the client its peer died. Reads whose replies had
    // already left the server complete normally; the rest just stop
    // getting replies. Each of those retransmits until it has used
    // maxAttempts attempts, then completes kFabricError, counted once
    // in `unrecoverable`, and no earlier than maxAttempts timeouts.
    auto session = makeClientSession();
    const vm::VAddr buf = session.allocBuffer(64 * 8);
    const rmc::RmcParams &p = cluster->node(1).rmc().params();

    std::vector<CqStatus> statuses;
    sim::Tick failedAt = 0;
    sim.spawn([](sim::Simulation *sim, Cluster *cluster, RmcSession *s,
                 vm::VAddr buf, std::vector<CqStatus> *statuses,
                 sim::Tick *failedAt) -> sim::Task {
        std::vector<OpHandle> handles;
        for (int i = 0; i < 8; ++i) {
            handles.push_back(co_await s->readAsync(
                0, std::uint64_t(i) * 64, buf + std::uint64_t(i) * 64,
                64));
        }
        // Fail the server node while requests are in flight.
        cluster->fabric().failNode(0);
        *failedAt = sim->now();
        for (OpHandle &h : handles)
            statuses->push_back((co_await h).status);
    }(&sim, cluster.get(), &session, buf, &statuses, &failedAt));
    sim.run();

    ASSERT_EQ(statuses.size(), 8u);
    std::uint64_t lost = 0;
    for (auto st : statuses) {
        EXPECT_TRUE(st == CqStatus::kOk || st == CqStatus::kFabricError);
        lost += st == CqStatus::kFabricError;
    }
    EXPECT_GT(lost, 0u) << "the kill must catch some reads in flight";
    EXPECT_EQ(session.outstanding(), 0u);
    const auto &stats = sim.stats();
    EXPECT_EQ(stats.counter("node1.rmc.unrecoverable")->value(), lost);
    EXPECT_EQ(stats.counter("node1.rmc.retransmits")->value(),
              lost * (p.maxAttempts - 1));
    EXPECT_GE(sim.now() - failedAt, p.maxAttempts * p.transferTimeout);
}

TEST_F(TwoNodeFixture, TwoQpsOnOneNodeOperateIndependently)
{
    auto s1 = makeClientSession();
    RmcSession s2(cluster->node(1).core(0), cluster->node(1).driver(),
                  *clientProc, kCtx);
    fillSegment(0, 64, 1);
    fillSegment(64, 64, 2);
    const vm::VAddr b1 = s1.allocBuffer(64);
    const vm::VAddr b2 = s2.allocBuffer(64);

    OpResult r1, r2;
    sim.spawn([](RmcSession *s, vm::VAddr b, OpResult *r) -> sim::Task {
        *r = co_await s->read(0, 0, b, 64);
    }(&s1, b1, &r1));
    sim.spawn([](RmcSession *s, vm::VAddr b, OpResult *r) -> sim::Task {
        *r = co_await s->read(0, 64, b, 64);
    }(&s2, b2, &r2));
    sim.run();

    EXPECT_TRUE(r1.ok());
    EXPECT_TRUE(r2.ok());
    std::uint8_t g1, g2;
    clientProc->addressSpace().read(b1, &g1, 1);
    clientProc->addressSpace().read(b2, &g2, 1);
    EXPECT_EQ(g1, 1);
    EXPECT_EQ(g2, 2);
}

TEST_F(TwoNodeFixture, WqWrapsAroundManyLaps)
{
    // 3 laps of the 64-entry WQ with data checking.
    auto session = makeClientSession();
    const int kOps = 64 * 3;
    fillSegment(0, 64, 0x77);
    const vm::VAddr buf = session.allocBuffer(64);

    int completions = 0;
    sim.spawn([](RmcSession *s, vm::VAddr buf,
                 int *completions) -> sim::Task {
        for (int i = 0; i < kOps; ++i) {
            const OpResult r = co_await s->read(0, 0, buf, 64);
            EXPECT_TRUE(r.ok());
            ++*completions;
        }
    }(&session, buf, &completions));
    sim.run();
    EXPECT_EQ(completions, kOps);
}

/** A write of @p len bytes from @p buf awaited to its completion. */
sim::Task
awaitWrite(RmcSession *s, sim::NodeId nid, std::uint64_t offset,
           vm::VAddr buf, std::uint32_t len, OpResult *r)
{
    OpHandle h = co_await s->writeAsync(nid, offset, buf, len);
    *r = co_await h;
}

TEST(RmcFence, NoRequestLineLeavesAfterItsQpIsFenced)
{
    // A 16-line async write on node 1, its session closed at fence tick
    // T for every T on a 3 ns grid across the write's whole life. The
    // fence completes the op kFlushed at once; a request line injected
    // after that would execute at the destination as a write of an op
    // the application already saw flushed. So once the fence ran, the
    // source must inject nothing more, whichever suspension (payload
    // translation, MAQ read, stage charge, NI send space) the RGP was
    // parked in.
    constexpr std::uint32_t kLen = 1024;
    std::uint32_t leaks = 0, flushed = 0, ok = 0;
    for (std::uint64_t ns = 0; ns < 1500; ns += 3) {
        api::TestBed bed(api::ClusterSpec{}.nodes(2));
        RmcSession &s = bed.session(1);
        const vm::VAddr buf = s.allocBuffer(kLen);
        const sim::Counter *sent = bed.sim().stats().counter(
            "node1.rmc.rgp.requestPackets");
        ASSERT_NE(sent, nullptr);
        std::uint64_t atFence = 0;
        bed.sim().eq().schedule(sim::nsToTicks(double(ns)), [&] {
            s.close();
            atFence = sent->value();
        });
        OpResult r;
        r.status = CqStatus::kFabricError;
        bed.spawn(awaitWrite(&s, 0, 0, buf, kLen, &r));
        bed.run();
        if (sent->value() != atFence)
            ++leaks;
        ASSERT_TRUE(r.status == CqStatus::kOk ||
                    r.status == CqStatus::kFlushed)
            << "fence at " << ns << " ns";
        (r.ok() ? ok : flushed) += 1;
    }
    EXPECT_EQ(leaks, 0u) << "fence ticks that let a request line out";
    // The grid must straddle the op: some fences catch it mid-flight,
    // the late ones find it already complete.
    EXPECT_GT(flushed, 0u);
    EXPECT_GT(ok, 0u);
}

TEST(RmcRetransmit, DropWindowKeepsBytesExactAndFetchAddExactlyOnce)
{
    // 4-node ring torus, node 0 -> node 2 (two hops either way). Every
    // link out of node 2 drops for the first 20 us, so every reply of
    // the first attempt is lost after the destination executed it;
    // links into node 2 drop over a short window inside the write's
    // unroll, so some write lines are lost as requests too. Recovery is
    // the RMC's alone: the timeout retransmits every line, the replayed
    // write lines and the replayed fetch-add are answered from the
    // dedup window instead of executing twice.
    fab::FaultPlan plan;
    const sim::Tick replyEnd = sim::usToTicks(20);
    plan.dropWindow(0, replyEnd, 2, 1).dropWindow(0, replyEnd, 2, 3);
    plan.dropWindow(sim::nsToTicks(150), sim::nsToTicks(400), 1, 2)
        .dropWindow(sim::nsToTicks(150), sim::nsToTicks(400), 3, 2);
    api::TestBed bed(
        api::ClusterSpec{}.nodes(4).torus({4}).faultPlan(plan));
    RmcSession &s = bed.session(0);
    constexpr std::uint32_t kLen = 1024;
    constexpr std::uint64_t kCounterOffset = 8192;
    const vm::VAddr buf = s.allocBuffer(kLen);
    std::vector<std::uint8_t> data(kLen);
    for (std::uint32_t i = 0; i < kLen; ++i)
        data[i] = static_cast<std::uint8_t>(31 + i * 13);
    bed.process(0).addressSpace().write(buf, data.data(), kLen);
    vm::AddressSpace &dst = bed.process(2).addressSpace();
    dst.writeT<std::uint64_t>(bed.segBase(2) + kCounterOffset, 1000);

    OpResult wr, fa;
    bed.spawn([](RmcSession *s, vm::VAddr buf, OpResult *wr,
                 OpResult *fa) -> sim::Task {
        OpHandle w = co_await s->writeAsync(2, 0, buf, kLen);
        OpHandle f = co_await s->fetchAddAsync(2, kCounterOffset, 7);
        *wr = co_await w;
        *fa = co_await f;
    }(&s, buf, &wr, &fa));
    bed.run();

    EXPECT_EQ(wr.status, CqStatus::kOk);
    EXPECT_EQ(fa.status, CqStatus::kOk);
    std::vector<std::uint8_t> got(kLen);
    dst.read(bed.segBase(2), got.data(), kLen);
    EXPECT_EQ(got, data);
    EXPECT_EQ(fa.oldValue, 1000u);
    EXPECT_EQ(dst.readT<std::uint64_t>(bed.segBase(2) + kCounterOffset),
              1007u)
        << "the fetch-add must apply exactly once";
    const sim::StatRegistry &stats = bed.sim().stats();
    EXPECT_GT(stats.counter("node0.rmc.retransmits")->value(), 0u);
    EXPECT_GT(stats.counter("node2.rmc.rrpp.dupSuppressed")->value(), 0u);
    EXPECT_EQ(stats.counter("node2.rmc.rrpp.atomics")->value(), 1u);
    // Some requests were lost too: node 2 served fewer than were sent.
    EXPECT_LT(stats.counter("node2.rmc.rrpp.requests")->value(),
              stats.counter("node0.rmc.rgp.requestPackets")->value());
}

TEST(RmcUnroll, UnmappedLocalPageStopsTheWriteAtTheHole)
{
    // A 512 B write whose source buffer straddles a page boundary, with
    // the second page unmapped: the RGP injects the four lines before
    // the hole, stops at the fifth, and the op completes kBoundsError
    // once the injected lines' replies drain. The QP stays usable.
    api::TestBed bed(api::ClusterSpec{}.nodes(2));
    RmcSession &s = bed.session(1);
    vm::AddressSpace &src = bed.process(1).addressSpace();
    vm::AddressSpace &dst = bed.process(0).addressSpace();
    const vm::VAddr pages = s.allocBuffer(2 * vm::kPageBytes);
    ASSERT_EQ(vm::pageOffset(pages), 0u);
    constexpr std::uint32_t kBefore = 256; // four lines, then the hole
    const vm::VAddr buf = pages + vm::kPageBytes - kBefore;
    std::vector<std::uint8_t> data(2 * kBefore);
    for (std::uint32_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(0x5a ^ i);
    src.write(buf, data.data(), data.size());
    src.pageTable().unmap(pages + vm::kPageBytes);
    std::vector<std::uint8_t> marker(2 * kBefore, 0xee);
    dst.write(bed.segBase(0), marker.data(), marker.size());

    OpResult torn, next;
    bed.spawn([](RmcSession *s, vm::VAddr buf, OpResult *torn,
                 OpResult *next) -> sim::Task {
        *torn = co_await s->write(0, 0, buf, 2 * kBefore);
        *next = co_await s->write(0, 4096, buf, 64);
    }(&s, buf, &torn, &next));
    bed.run();

    EXPECT_EQ(torn.status, CqStatus::kBoundsError);
    EXPECT_EQ(next.status, CqStatus::kOk);
    std::vector<std::uint8_t> got(2 * kBefore);
    dst.read(bed.segBase(0), got.data(), got.size());
    for (std::uint32_t i = 0; i < kBefore; ++i)
        ASSERT_EQ(got[i], data[i]) << "line before the hole, byte " << i;
    for (std::uint32_t i = kBefore; i < 2 * kBefore; ++i)
        ASSERT_EQ(got[i], 0xee) << "line after the hole, byte " << i;
    std::uint8_t first = 0;
    dst.read(bed.segBase(0) + 4096, &first, 1);
    EXPECT_EQ(first, 0x5a);
    // Four lines of the torn write, one of the next.
    EXPECT_EQ(bed.sim().stats().counter("node1.rmc.rgp.requestPackets")
                  ->value(),
              5u);
}

} // namespace
