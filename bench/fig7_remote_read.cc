/**
 * @file
 * Figure 7: remote read performance.
 *
 *  (a) latency vs request size, simulated hardware, single/double-sided
 *  (b) bandwidth vs request size, simulated hardware, single/double-sided
 *  (c) latency vs request size, development platform (emulation mode)
 *
 * Paper reference points: ~300 ns for small reads (within 4x of local
 * DRAM), 10 M ops/s at 64 B, 9.6 GB/s at 8 KB, double-sided bandwidth =
 * 2x single-sided; development platform ~1.5 us base latency growing
 * with request size.
 *
 * --platform=hw or --platform=emu runs one side only; any other value
 * exits 2. --out=PATH also writes the tables as JSON: one row per size
 * and platform, plus the local DRAM yardstick.
 */

#include <string>

#include "bench/common.hh"
#include "sim/json.hh"

namespace {

using namespace sonuma;
using api::TestBed;

/** Synchronous latency: one node reading (single-sided). */
sim::Task
latencyWorker(api::RmcSession *s, vm::VAddr buf, std::uint64_t segBytes,
              std::uint32_t size, int iters, double *out)
{
    sim::Simulation *sim = &s->core().simulation();
    const std::uint64_t span = segBytes / 2;
    // Warm: TLB/CT$ fills.
    for (int i = 0; i < 16; ++i)
        co_await s->read(0, (std::uint64_t(i) * size) % span, buf, size);
    const sim::Tick t0 = sim->now();
    for (int i = 0; i < iters; ++i)
        co_await s->read(0, (std::uint64_t(i) * size) % span, buf, size);
    *out = sim::ticksToNs(sim->now() - t0) / iters;
}

/** Asynchronous throughput with a full window (WQ depth). */
sim::Task
bandwidthWorker(api::RmcSession *s, vm::VAddr buf, std::uint64_t segBytes,
                sim::NodeId peer, std::uint32_t size, int ops,
                double *gbps, double *mops)
{
    sim::Simulation *sim = &s->core().simulation();
    const std::uint64_t span = segBytes / 2;
    const std::uint64_t bufSpan = 64ull * size;
    const sim::Tick t0 = sim->now();
    for (int i = 0; i < ops; ++i) {
        co_await s->readAsync(peer, (std::uint64_t(i) * size) % span,
                              buf + (std::uint64_t(i) * size) % bufSpan,
                              size);
    }
    co_await s->drain();
    const double secs = sim::ticksToNs(sim->now() - t0) * 1e-9;
    *gbps = static_cast<double>(ops) * size * 8.0 / secs / 1e9;
    *mops = static_cast<double>(ops) / secs / 1e6;
}

/** Print one platform's table and append its rows to @p w. */
void
runPlatform(const rmc::RmcParams &params, bool bandwidth_too,
            double localNs, sim::JsonWriter &w)
{
    const std::uint32_t sizes[] = {64,   128,  256,  512,
                                   1024, 2048, 4096, 8192};
    std::printf("# local DRAM load: %.1f ns\n", localNs);

    std::printf("%-8s %14s %14s", "size(B)", "lat-1sided(ns)",
                "lat-2sided(ns)");
    if (bandwidth_too)
        std::printf(" %14s %14s %10s", "bw-1sided(Gbps)",
                    "bw-2sided(Gbps)", "Mops-1s");
    std::printf("\n");

    for (const std::uint32_t size : sizes) {
        const int iters = size <= 512 ? 300 : 100;
        node::EventCounts events;

        // (a) single-sided latency.
        double lat1 = 0;
        {
            TestBed bed = bench::twoNodeBed(params);
            auto &s = bed.session(1);
            const auto buf = s.allocBuffer(size);
            bed.spawn(latencyWorker(&s, buf, bed.segBytes(), size, iters,
                                    &lat1));
            bed.run();
            events.add(bed.cluster());
        }

        // (a) double-sided latency: both nodes read from each other.
        double lat2 = 0;
        {
            TestBed bed = bench::twoNodeBed(params);
            auto &sc = bed.session(1);
            auto &ss = bed.session(0);
            const auto bufC = sc.allocBuffer(size);
            const auto bufS = ss.allocBuffer(64ull * size);
            double other = 0;
            bed.spawn(latencyWorker(&sc, bufC, bed.segBytes(), size,
                                    iters, &lat2));
            // The peer streams reads in the opposite direction.
            bed.spawn([](api::RmcSession *s, vm::VAddr buf,
                         std::uint64_t segBytes, std::uint32_t size,
                         int ops, double *sink) -> sim::Task {
                double g = 0, m = 0;
                co_await bandwidthWorker(s, buf, segBytes, 1, size, ops,
                                         &g, &m);
                *sink = g;
            }(&ss, bufS, bed.segBytes(), size, iters + 64, &other));
            bed.run();
            events.add(bed.cluster());
        }

        double bw1 = 0, mops1 = 0, bw2 = 0;
        if (bandwidth_too) {
            const int ops = size <= 256 ? 20000 : (size <= 2048 ? 4000
                                                                : 1500);
            {
                TestBed bed = bench::twoNodeBed(params);
                auto &s = bed.session(1);
                const auto buf = s.allocBuffer(64ull * size);
                bed.spawn(bandwidthWorker(&s, buf, bed.segBytes(), 0,
                                          size, ops, &bw1, &mops1));
                bed.run();
                events.add(bed.cluster());
            }
            {
                TestBed bed = bench::twoNodeBed(params);
                auto &sc = bed.session(1);
                auto &ss = bed.session(0);
                const auto bufC = sc.allocBuffer(64ull * size);
                const auto bufS = ss.allocBuffer(64ull * size);
                double bwa = 0, bwb = 0, m1 = 0, m2 = 0;
                bed.spawn(bandwidthWorker(&sc, bufC, bed.segBytes(), 0,
                                          size, ops, &bwa, &m1));
                bed.spawn(bandwidthWorker(&ss, bufS, bed.segBytes(), 1,
                                          size, ops, &bwb, &m2));
                bed.run();
                events.add(bed.cluster());
                bw2 = bwa + bwb;
            }
        }

        std::printf("%-8u %14.1f %14.1f", size, lat1, lat2);
        w.beginObject()
            .field("size_bytes", size)
            .field("lat_1sided_ns", lat1)
            .field("lat_2sided_ns", lat2);
        if (bandwidth_too) {
            std::printf(" %14.1f %14.1f %10.2f", bw1, bw2, mops1);
            w.field("bw_1sided_gbps", bw1)
                .field("bw_2sided_gbps", bw2)
                .field("mops_1sided", mops1);
        }
        events.write(w);
        w.endObject();
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv, {"platform", "out"});
    const std::string platform = args.get("platform", "");
    if (!platform.empty() && platform != "hw" && platform != "emu") {
        std::fprintf(stderr,
                     "--platform: unknown platform '%s' (valid: hw, emu)\n",
                     platform.c_str());
        return 2;
    }
    const bool emuOnly = platform == "emu";
    const bool hwOnly = platform == "hw";
    const std::string out = args.get("out", "");
    const double localNs = bench::measureLocalDramNs();
    sim::JsonWriter w;
    w.beginArtifact("fig7_remote_read")
        .field("local_dram_ns", localNs);
    w.key("hw").beginArray();

    if (!emuOnly) {
        auto hw = rmc::RmcParams::simulatedHardware();
        bench::printConfigHeader(
            "Fig. 7a/7b: remote reads, simulated hardware", hw);
        runPlatform(hw, /*bandwidth_too=*/true, localNs, w);
        std::printf("\n");
    }
    w.endArray().key("emu").beginArray();
    if (!hwOnly) {
        auto emu = rmc::RmcParams::emulationPlatform();
        bench::printConfigHeader(
            "Fig. 7c: remote reads, development platform", emu);
        runPlatform(emu, /*bandwidth_too=*/false, localNs, w);
    }
    w.endArray().endObject();
    if (!out.empty())
        sim::writeFile(out, w.str());
    return 0;
}
