/**
 * @file
 * Figure 8: unsolicited send/receive performance (the software messaging
 * library of §5.3, measured netpipe-style as in §7.3).
 *
 *  (a) half-duplex latency vs message size, simulated hardware, for
 *      threshold = 0 (pull only), threshold = inf (push only), and the
 *      tuned threshold (256 B on hardware, 1 KB on the dev platform)
 *  (b) streaming bandwidth, same three configurations
 *  (c) latency on the development platform
 *
 * Paper reference points: 340 ns minimal half-duplex latency, >10 Gbps
 * at 4 KB, 12.8 Gbps at 8 KB on simulated hardware; 1.4 us minimum and
 * a 1 KB optimal threshold on the development platform.
 *
 * --out=PATH also writes the tables as JSON, one row per size and
 * platform.
 */

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/messaging.hh"
#include "bench/common.hh"
#include "sim/json.hh"

namespace {

using namespace sonuma;
using api::MsgEndpoint;
using api::MsgParams;
using api::TestBed;

struct Endpoints
{
    std::unique_ptr<MsgEndpoint> e0, e1;
};

Endpoints
makeEndpoints(TestBed &bed, const MsgParams &mp)
{
    Endpoints e;
    e.e0 = std::make_unique<MsgEndpoint>(bed.session(0), 1,
                                         bed.segBase(0), 0, 0, mp);
    e.e1 = std::make_unique<MsgEndpoint>(bed.session(1), 0,
                                         bed.segBase(1), 0, 0, mp);
    return e;
}

/** Half-duplex (one-way) latency via ping-pong, as netpipe reports. */
double
pingPongLatencyNs(const rmc::RmcParams &rp, const MsgParams &mp,
                  std::uint32_t size, int iters, node::EventCounts *events)
{
    TestBed bed = bench::twoNodeBed(
        rp, std::max<std::uint64_t>(64ull << 20,
                                    4 * MsgEndpoint::regionBytes(mp)));
    auto e = makeEndpoints(bed, mp);
    double oneWayNs = 0;
    bed.spawn([](sim::Simulation *sim, MsgEndpoint *ep,
                   std::uint32_t size, int iters,
                   double *out) -> sim::Task {
        std::vector<std::uint8_t> msg(size, 0x5a), buf;
        co_await ep->send(msg.data(), size); // warm
        co_await ep->receive(&buf);
        const sim::Tick t0 = sim->now();
        for (int i = 0; i < iters; ++i) {
            co_await ep->send(msg.data(), size);
            co_await ep->receive(&buf);
        }
        *out = sim::ticksToNs(sim->now() - t0) / (2.0 * iters);
    }(&bed.sim(), e.e0.get(), size, iters, &oneWayNs));
    bed.spawn([](MsgEndpoint *ep, std::uint32_t size,
                   int iters) -> sim::Task {
        std::vector<std::uint8_t> msg(size, 0xa5), buf;
        co_await ep->receive(&buf);
        co_await ep->send(msg.data(), size);
        for (int i = 0; i < iters; ++i) {
            co_await ep->receive(&buf);
            co_await ep->send(msg.data(), size);
        }
    }(e.e1.get(), size, iters));
    bed.run();
    events->add(bed.cluster());
    return oneWayNs;
}

/** Streaming bandwidth: sender pushes messages back to back. */
double
streamGbps(const rmc::RmcParams &rp, const MsgParams &mp,
           std::uint32_t size, int count, node::EventCounts *events)
{
    TestBed bed = bench::twoNodeBed(
        rp, std::max<std::uint64_t>(64ull << 20,
                                    4 * MsgEndpoint::regionBytes(mp)));
    auto e = makeEndpoints(bed, mp);
    double gbps = 0;
    bed.spawn([](MsgEndpoint *ep, std::uint32_t size,
                   int count) -> sim::Task {
        std::vector<std::uint8_t> msg(size, 0x42);
        for (int i = 0; i < count; ++i)
            co_await ep->send(msg.data(), size);
    }(e.e0.get(), size, count));
    bed.spawn([](sim::Simulation *sim, MsgEndpoint *ep,
                   std::uint32_t size, int count,
                   double *out) -> sim::Task {
        std::vector<std::uint8_t> buf;
        const sim::Tick t0 = sim->now();
        for (int i = 0; i < count; ++i)
            co_await ep->receive(&buf);
        const double secs = sim::ticksToNs(sim->now() - t0) * 1e-9;
        *out = static_cast<double>(count) * size * 8.0 / secs / 1e9;
    }(&bed.sim(), e.e1.get(), size, count, &gbps));
    bed.run();
    events->add(bed.cluster());
    return gbps;
}

/** Print one platform's table and append its rows to @p w. */
void
runPlatform(const rmc::RmcParams &rp, std::uint32_t tunedThreshold,
            bool bandwidth_too, sim::JsonWriter &w)
{
    const std::uint32_t sizes[] = {64,   128,  256,  512,
                                   1024, 2048, 4096, 8192};
    const std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

    std::printf("%-8s | %10s %10s %10s", "size(B)", "lat-pull", "lat-push",
                "lat-tuned");
    if (bandwidth_too)
        std::printf(" | %9s %9s %9s", "bw-pull", "bw-push", "bw-tuned");
    std::printf("   (lat ns, bw Gbps; tuned threshold=%u B)\n",
                tunedThreshold);

    for (const std::uint32_t size : sizes) {
        const int iters = rp.emulation() ? 40 : 100;
        MsgParams pull, push, tuned;
        pull.pushThreshold = 0;
        push.pushThreshold = kInf;
        tuned.pushThreshold = tunedThreshold;
        node::EventCounts events;

        const double lp = pingPongLatencyNs(rp, pull, size, iters, &events);
        const double lh = pingPongLatencyNs(rp, push, size, iters, &events);
        const double lt = pingPongLatencyNs(rp, tuned, size, iters, &events);
        std::printf("%-8u | %10.0f %10.0f %10.0f", size, lp, lh, lt);
        w.beginObject()
            .field("size_bytes", size)
            .field("tuned_threshold_bytes", tunedThreshold)
            .field("lat_pull_ns", lp)
            .field("lat_push_ns", lh)
            .field("lat_tuned_ns", lt);

        if (bandwidth_too) {
            const int count = size >= 4096 ? 400 : 800;
            const double bp = streamGbps(rp, pull, size, count, &events);
            const double bh = streamGbps(rp, push, size, count, &events);
            const double bt = streamGbps(rp, tuned, size, count, &events);
            std::printf(" | %9.2f %9.2f %9.2f", bp, bh, bt);
            w.field("bw_pull_gbps", bp)
                .field("bw_push_gbps", bh)
                .field("bw_tuned_gbps", bt);
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
    bench::Args args(argc, argv, {"out"});
    const std::string out = args.get("out", "");
    sim::JsonWriter w;
    w.beginArtifact("fig8_send_receive");
    w.key("hw").beginArray();
    auto hw = rmc::RmcParams::simulatedHardware();
    bench::printConfigHeader("Fig. 8a/8b: send/receive, simulated hardware",
                             hw);
    runPlatform(hw, /*tunedThreshold=*/256, /*bandwidth_too=*/true, w);
    std::printf("\n");

    w.endArray().key("emu").beginArray();
    auto emu = rmc::RmcParams::emulationPlatform();
    bench::printConfigHeader("Fig. 8c: send/receive, development platform",
                             emu);
    runPlatform(emu, /*tunedThreshold=*/1024, /*bandwidth_too=*/false, w);
    w.endArray().endObject();
    if (!out.empty())
        sim::writeFile(out, w.str());
    return 0;
}
