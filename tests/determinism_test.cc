/**
 * @file
 * Determinism regression tests: two identically-seeded runs of the
 * fig7-style remote-read workload and the fig8-style send/receive
 * workload must produce byte-identical statistics dumps. Guards the
 * event queue's same-tick FIFO ordering and the fabric's ring-buffered
 * drain path against nondeterminism.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/sweep.hh"
#include "api/workload.hh"
#include "app/pagerank.hh"
#include "bench/common.hh"

namespace {

using namespace sonuma;
using api::TestBed;

sim::Task
remoteReadWorker(api::RmcSession *s, vm::VAddr buf, std::uint64_t segBytes,
                 int iters)
{
    const std::uint64_t span = segBytes / 2;
    for (int i = 0; i < iters; ++i)
        co_await s->read(0, (std::uint64_t(i) * 64) % span, buf, 64);
}

/** Run the fig7-style workload and render the full stats dump. */
std::string
runRemoteReadStats(std::uint64_t seed)
{
    TestBed bed = bench::twoNodeBed(rmc::RmcParams::simulatedHardware(),
                                    1ull << 20, seed);
    auto &session = bed.session(1);
    bed.spawn(remoteReadWorker(&session, bed.segBase(1), bed.segBytes(),
                               200));
    bed.run();
    std::ostringstream os;
    os << "finalTick=" << bed.sim().now() << "\n";
    bed.sim().stats().dump(os);
    return os.str();
}

TEST(Determinism, RemoteReadStatsDumpIsReproducible)
{
    const std::string a = runRemoteReadStats(42);
    const std::string b = runRemoteReadStats(42);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "identical seeds must give identical stats dumps";
}

sim::Task
sendWorker(api::RmcSession *s, vm::VAddr buf, int iters)
{
    for (int i = 0; i < iters; ++i) {
        // Remote write of one line, fig8-style one-way messaging.
        co_await s->write(0, 4096 + std::uint64_t(i % 8) * 64, buf, 64);
    }
}

std::string
runSendReceiveStats(std::uint64_t seed)
{
    TestBed bed = bench::twoNodeBed(rmc::RmcParams::simulatedHardware(),
                                    1ull << 20, seed);
    auto &session = bed.session(1);
    bed.spawn(sendWorker(&session, bed.segBase(1), 200));
    bed.run();
    std::ostringstream os;
    os << "finalTick=" << bed.sim().now() << "\n";
    bed.sim().stats().dump(os);
    return os.str();
}

TEST(Determinism, SendReceiveStatsDumpIsReproducible)
{
    const std::string a = runSendReceiveStats(7);
    const std::string b = runSendReceiveStats(7);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Determinism, BackToBackRunsInOneProcessMatchFreshState)
{
    // Pools and thread-local state must not leak timing between runs:
    // run A, then B, then A again; the two A dumps must match.
    const std::string a1 = runRemoteReadStats(123);
    const std::string b = runSendReceiveStats(9);
    const std::string a2 = runRemoteReadStats(123);
    EXPECT_NE(a1, b);
    EXPECT_EQ(a1, a2);
}

/**
 * Multi-QP session with doorbell batching: round-robin QP selection,
 * per-QP doorbell coalescing and the burst-limited RGP arbitration are
 * all deterministic — identical seeds must still give byte-identical
 * stats dumps.
 */
std::string
runMultiQpBatchedStats(std::uint64_t seed)
{
    auto rp = rmc::RmcParams::simulatedHardware();
    rp.qpCount = 4;
    rp.qpEntries = 8;
    TestBed bed(api::ClusterSpec{}
                    .nodes(2)
                    .rmc(rp)
                    .doorbellBatching(true)
                    .segmentPerNode(1ull << 20)
                    .seed(seed));
    auto &session = bed.session(1);
    const vm::VAddr buf =
        session.allocBuffer(std::uint64_t(session.queueDepth()) * 64);
    bed.spawn([](api::RmcSession *s, vm::VAddr buf) -> sim::Task {
        // Bursts of async posts (batched doorbells, mixed explicit and
        // round-robin QPs) separated by flush/drain rendezvous.
        for (int round = 0; round < 25; ++round) {
            for (std::uint32_t i = 0; i < s->queueDepth(); ++i) {
                const std::uint32_t qp =
                    i % 3 == 0 ? i % s->qpCount() : api::RmcSession::kAnyQp;
                (void)co_await s->readAsync(
                    0, (std::uint64_t(round) * 31 + i) * 64,
                    buf + std::uint64_t(s->nextSlot(qp)) * 64, 64, qp);
            }
            co_await s->drain();
        }
    }(&session, buf));
    bed.run();
    std::ostringstream os;
    os << "finalTick=" << bed.sim().now() << "\n";
    bed.sim().stats().dump(os);
    return os.str();
}

TEST(Determinism, MultiQpBatchedStatsDumpIsReproducible)
{
    const std::string a = runMultiQpBatchedStats(31);
    const std::string b = runMultiQpBatchedStats(31);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "multi-QP + doorbell batching must stay "
                       "deterministic";
    // Batching must actually have coalesced: strictly fewer doorbells
    // than WQ entries processed.
    const auto grab = [&a](const std::string &key) {
        const auto pos = a.find(key);
        EXPECT_NE(pos, std::string::npos) << key;
        return std::stoull(a.substr(
            a.find_first_of("0123456789", pos + key.size())));
    };
    EXPECT_LT(grab("node1.rmc.rgp.doorbells"),
              grab("node1.rmc.rgp.wqEntries"));
}

/**
 * The fig9 PageRank workload on the Workload runtime (graph
 * generation, random partition, fine-grain superstep loop with
 * barriers on a 3D torus): identical seeds must give byte-identical
 * stats dumps — the CI check behind the FIG9_*.json artifacts.
 */
std::string
runFig9PageRankStats(std::uint64_t seed)
{
    api::SweepConfig cfg;
    cfg.workload = "pagerank";
    cfg.pagerank.vertices = 256;
    cfg.pagerank.degree = 4;
    cfg.torusDims = {2, 2, 2};
    cfg.seed = seed;
    cfg.echo = false;

    // Drive through the SweepDriver so the whole artifact path is under
    // test, then dump the cell's JSON (the stats registry dies with the
    // cell's TestBed; its JSON projection is what regressions diff).
    sonuma::app::registerPageRankSweepWorkload();
    const auto cell = api::SweepDriver(cfg).runCell(
        8, sonuma::node::Topology::kTorus, 64, 16);
    return cell.json();
}

TEST(Determinism, Fig9PageRankCellIsReproducible)
{
    const std::string a = runFig9PageRankStats(11);
    const std::string b = runFig9PageRankStats(11);
    EXPECT_FALSE(a.empty());
    // host_seconds is wall time; mask it before comparing.
    const auto mask = [](std::string s) {
        const auto pos = s.find("\"host_seconds\"");
        return pos == std::string::npos ? s : s.substr(0, pos);
    };
    EXPECT_EQ(mask(a), mask(b))
        << "seeded fig9 pagerank cells must be byte-identical";
    EXPECT_NE(a.find("\"workload\": \"pagerank\""), std::string::npos);
}

/** Same property, one layer down: the full simulator stats dump. */
std::string
runFig9WorkloadStatsDump(std::uint64_t seed)
{
    using namespace sonuma::app;
    sim::Rng grng(5);
    const Graph g = generatePowerLaw(grng, 256, 4);
    sim::Rng prng(6);
    const Partition part = randomPartition(prng, g.numVertices, 8);
    PageRankConfig cfg;
    cfg.supersteps = 1;
    cfg.seed = seed;

    PageRankFineWorkload pr(g, part, cfg);
    TestBed bed(api::ClusterSpec{}
                    .nodes(8)
                    .torus(2, 2, 2)
                    .segmentPerNode(pr.segmentBytesNeeded())
                    .seed(seed));
    api::Workload wl(bed, "pagerank");
    pr.install(bed, wl);
    wl.run();
    std::ostringstream os;
    os << "finalTick=" << bed.sim().now() << "\n";
    bed.sim().stats().dump(os);
    return os.str();
}

TEST(Determinism, Fig9WorkloadStatsDumpIsReproducible)
{
    const std::string a = runFig9WorkloadStatsDump(17);
    const std::string b = runFig9WorkloadStatsDump(17);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "identical seeds must give identical stats dumps";
}

} // namespace
