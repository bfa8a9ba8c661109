/**
 * @file
 * Table 2: soNUMA (development platform + simulated hardware) versus
 * RDMA/InfiniBand (ConnectX-3 class model) on four metrics:
 *
 *            | soNUMA dev | soNUMA sim'd HW | RDMA/IB
 *   Max BW   |  1.8 Gbps  |     77 Gbps     | 50 Gbps
 *   Read RTT |   1.5 us   |     0.3 us      | 1.19 us
 *   F&A      |   1.5 us   |     0.3 us      | 1.15 us
 *   IOPS     |   1.97 M   |     10.9 M      | 35 M @ 4 QPs (8.75/QP)
 *
 * Plus the table's queue-pair axis: IOPS vs qpCount on shallow (8-entry)
 * rings with doorbell batching, the multi-QP session reproduction of
 * "IOPS scale with the number of QPs". --out=PATH writes the
 * three-platform table as JSON; --out-dir=DIR writes one JSON artifact
 * per curve point (checked into BENCH_sweep/).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/rdma.hh"
#include "bench/common.hh"
#include "sim/json.hh"
#include "sim/time_series.hh"

namespace {

using namespace sonuma;
using api::TestBed;

struct Metrics
{
    double maxBwGbps = 0;
    double readRttUs = 0;
    double fetchAddUs = 0;
    double mops = 0;
    node::EventCounts events;
};

Metrics
measureSonuma(const rmc::RmcParams &params)
{
    Metrics m;
    const bool emu = params.emulation();

    // Read RTT + fetch-and-add (blocking, warm).
    {
        TestBed bed = bench::twoNodeBed(params);
        auto &s = bed.session(1);
        const auto buf = s.allocBuffer(64);
        bed.spawn([](sim::Simulation *sim, api::RmcSession *s,
                     vm::VAddr buf, Metrics *m) -> sim::Task {
            for (int i = 0; i < 16; ++i)
                co_await s->read(0, std::uint64_t(i) * 64, buf, 64);
            sim::Tick t0 = sim->now();
            const int iters = 200;
            for (int i = 0; i < iters; ++i)
                co_await s->read(0, std::uint64_t(i) * 64, buf, 64);
            m->readRttUs = sim::ticksToUs(sim->now() - t0) / iters;
            t0 = sim->now();
            for (int i = 0; i < iters; ++i)
                co_await s->fetchAdd(0, 1 << 20, 1);
            m->fetchAddUs = sim::ticksToUs(sim->now() - t0) / iters;
        }(&bed.sim(), &s, buf, &m));
        bed.run();
        m.events.add(bed.cluster());
    }

    // Max BW: pipelined 8 KB reads. IOPS: pipelined 64 B reads.
    {
        TestBed bed = bench::twoNodeBed(params);
        auto &s = bed.session(1);
        const auto buf = s.allocBuffer(64ull * 8192);
        bed.spawn([](sim::Simulation *sim, api::RmcSession *s,
                     vm::VAddr buf, std::uint64_t segBytes, bool emu,
                     Metrics *m) -> sim::Task {
            const int ops = emu ? 100 : 1500;
            sim::Tick t0 = sim->now();
            for (int i = 0; i < ops; ++i) {
                co_await s->readAsync(
                    0, (std::uint64_t(i) * 8192) % (segBytes / 2),
                    buf + (std::uint64_t(i) % 64) * 8192, 8192);
            }
            co_await s->drain();
            double secs = sim::ticksToNs(sim->now() - t0) * 1e-9;
            m->maxBwGbps = ops * 8192.0 * 8.0 / secs / 1e9;

            const int iops = emu ? 4000 : 20000;
            t0 = sim->now();
            for (int i = 0; i < iops; ++i) {
                co_await s->readAsync(
                    0, (std::uint64_t(i) * 64) % (segBytes / 2), buf, 64);
            }
            co_await s->drain();
            secs = sim::ticksToNs(sim->now() - t0) * 1e-9;
            m->mops = iops / secs / 1e6;
        }(&bed.sim(), &s, buf, bed.segBytes(), emu, &m));
        bed.run();
        m.events.add(bed.cluster());
    }
    return m;
}

Metrics
measureRdma()
{
    Metrics m;
    {
        sim::Simulation sim;
        baseline::RdmaPair rdma(sim.eq(), sim.stats(), {});
        const int iters = 100;
        sim.spawn([](sim::Simulation *sim, baseline::RdmaPair *r, int iters,
                     Metrics *m) -> sim::Task {
            sim::Tick t0 = sim->now();
            for (int i = 0; i < iters; ++i)
                co_await r->read(64);
            m->readRttUs = sim::ticksToUs(sim->now() - t0) / iters;
            t0 = sim->now();
            for (int i = 0; i < iters; ++i)
                co_await r->fetchAdd();
            m->fetchAddUs = sim::ticksToUs(sim->now() - t0) / iters;
        }(&sim, &rdma, iters, &m));
        sim.run();
        m.events.add(sim.eq(), 2 * iters);
    }
    {
        sim::Simulation sim;
        baseline::RdmaPair rdma(sim.eq(), sim.stats(), {});
        const int ops = 256;
        sim.spawn([](sim::Simulation *sim, baseline::RdmaPair *r, int ops,
                     Metrics *m) -> sim::Task {
            const sim::Tick t0 = sim->now();
            co_await r->stream(64 * 1024, ops);
            const double secs = sim::ticksToNs(sim->now() - t0) * 1e-9;
            m->maxBwGbps = ops * 65536.0 * 8.0 / secs / 1e9;
        }(&sim, &rdma, ops, &m));
        sim.run();
        m.events.add(sim.eq(), ops);
    }
    {
        sim::Simulation sim;
        baseline::RdmaPair rdma(sim.eq(), sim.stats(), {});
        const int ops = 20000;
        sim.spawn([](sim::Simulation *sim, baseline::RdmaPair *r, int ops,
                     Metrics *m) -> sim::Task {
            const sim::Tick t0 = sim->now();
            co_await r->stream(8, ops);
            const double secs = sim::ticksToNs(sim->now() - t0) * 1e-9;
            m->mops = ops / secs / 1e6;
        }(&sim, &rdma, ops, &m));
        sim.run();
        m.events.add(sim.eq(), ops);
    }
    return m;
}

/**
 * One point of the IOPS-vs-qpCount curve: pipelined 64 B reads from a
 * single session whose in-flight window is qpCount shallow rings. The
 * ring depth (8) is the deliberate bottleneck — adding QPs widens the
 * window until the RMC pipelines saturate, which is exactly the axis
 * Table 2 reports per-QP IOPS on.
 */
double
measureIopsAtQps(std::uint32_t qpCount, std::uint64_t obsPeriodNs,
                 std::string *obsJson, node::EventCounts *events)
{
    auto params = sonuma::rmc::RmcParams::simulatedHardware();
    params.qpEntries = 8;
    params.qpCount = qpCount;

    TestBed bed(api::ClusterSpec{}
                    .nodes(2)
                    .rmc(params)
                    .segmentPerNode(64ull << 20)
                    .doorbellBatching(true)
                    .observability(obsPeriodNs));
    auto &s = bed.session(1);
    const auto buf =
        s.allocBuffer(std::uint64_t(s.queueDepth()) * 64);
    double mops = 0;
    bed.spawn([](sim::Simulation *sim, api::RmcSession *s, vm::VAddr buf,
                 std::uint64_t segBytes, double *out) -> sim::Task {
        const std::uint64_t span = segBytes / 2;
        const int warm = 256, ops = 20000;
        for (int i = 0; i < warm; ++i) {
            co_await s->readAsync(0, (std::uint64_t(i) * 64) % span,
                                  buf + std::uint64_t(s->nextSlot()) * 64,
                                  64);
        }
        co_await s->drain();
        const sim::Tick t0 = sim->now();
        for (int i = 0; i < ops; ++i) {
            co_await s->readAsync(0, (std::uint64_t(i) * 64) % span,
                                  buf + std::uint64_t(s->nextSlot()) * 64,
                                  64);
        }
        co_await s->drain();
        const double secs = sim::ticksToNs(sim->now() - t0) * 1e-9;
        *out = ops / secs / 1e6;
    }(&bed.sim(), &s, buf, bed.segBytes(), &mops));
    bed.run();
    events->add(bed.cluster());
    if (obsPeriodNs > 0 && obsJson) {
        *obsJson = sim::renderObsJson(
            bed.sim().stats(),
            "TABLE2_iops_qp" + std::to_string(qpCount), obsPeriodNs);
    }
    return mops;
}

void
runQpCurve(const std::string &outDir, std::uint64_t obsPeriodNs)
{
    const std::vector<std::uint32_t> qps{1, 2, 4, 8};
    std::printf("\n# IOPS vs queue pairs (64 B reads, 8-entry rings, "
                "doorbell batching)\n");
    std::printf("%-8s %14s %14s\n", "QPs", "Mops/s", "Mops/s-per-QP");
    for (const auto n : qps) {
        std::string obsJson;
        node::EventCounts events;
        const double mops =
            measureIopsAtQps(n, obsPeriodNs, &obsJson, &events);
        std::printf("%-8u %14.2f %14.2f\n", n, mops, mops / n);
        if (outDir.empty())
            continue;
        const std::string label = "TABLE2_iops_qp" + std::to_string(n);
        sim::JsonWriter w;
        w.beginArtifact("table2_iops_vs_qps")
            .field("qp_count", n)
            .field("qp_depth", 8)
            .field("doorbell_batching", 1)
            .field("request_bytes", 64)
            .field("mops", mops);
        events.write(w);
        w.endObject();
        sim::writeFile(outDir + "/" + label + ".json", w.str());
        if (!obsJson.empty())
            sim::writeFile(outDir + "/OBS_" + label + ".json", obsJson);
    }
    std::printf("# paper Table 2: IOPS scale with the number of QPs "
                "(IB: ~8.75 Mops per QP)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv, {"out", "out-dir", "obs-period-ns"});
    const std::string out = args.get("out", "");
    const std::string outDir = args.get("out-dir", "");
    const std::uint64_t obsPeriodNs = args.getU64("obs-period-ns", 0);
    std::printf("# Table 2: soNUMA vs RDMA/InfiniBand\n");
    std::printf("# measuring soNUMA (dev platform)...\n");
    const Metrics dev =
        measureSonuma(sonuma::rmc::RmcParams::emulationPlatform());
    std::printf("# measuring soNUMA (simulated hardware)...\n");
    const Metrics hw =
        measureSonuma(sonuma::rmc::RmcParams::simulatedHardware());
    std::printf("# measuring RDMA/IB model...\n");
    const Metrics ib = measureRdma();

    std::printf("\n%-22s %14s %14s %14s\n", "Transport", "soNUMA dev",
                "soNUMA sim'd HW", "RDMA/IB");
    std::printf("%-22s %14.1f %14.1f %14.1f\n", "Max BW (Gbps)",
                dev.maxBwGbps, hw.maxBwGbps, ib.maxBwGbps);
    std::printf("%-22s %14.2f %14.2f %14.2f\n", "Read RTT (us)",
                dev.readRttUs, hw.readRttUs, ib.readRttUs);
    std::printf("%-22s %14.2f %14.2f %14.2f\n", "Fetch-and-add (us)",
                dev.fetchAddUs, hw.fetchAddUs, ib.fetchAddUs);
    std::printf("%-22s %14.2f %14.2f %14.2f\n", "IOPS (Mops/s, 1 QP)",
                dev.mops, hw.mops, ib.mops);
    std::printf("\n# paper:               1.8 / 77 / 50 Gbps ; "
                "1.5 / 0.3 / 1.19 us ;\n");
    std::printf("#                      1.5 / 0.3 / 1.15 us ; "
                "1.97 / 10.9 / ~8.75-per-QP Mops\n");

    if (!out.empty()) {
        sim::JsonWriter w;
        w.beginArtifact("table2_comparison");
        w.key("platforms").beginArray();
        for (const auto &[name, m] : {std::pair{"sonuma_dev", dev},
                                      std::pair{"sonuma_hw", hw},
                                      std::pair{"rdma_ib", ib}}) {
            w.beginObject()
                .field("platform", name)
                .field("max_bw_gbps", m.maxBwGbps)
                .field("read_rtt_us", m.readRttUs)
                .field("fetch_add_us", m.fetchAddUs)
                .field("mops", m.mops);
            m.events.write(w);
            w.endObject();
        }
        w.endArray().endObject();
        sim::writeFile(out, w.str());
    }

    runQpCurve(outDir, obsPeriodNs);
    return 0;
}
