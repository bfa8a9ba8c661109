/**
 * @file
 * Figure 1: netpipe over a commodity deep network stack (the paper's
 * motivation measurement on two directly-connected Calxeda ECX-1000
 * microservers with integrated 10 GbE).
 *
 * Paper reference points: latency in excess of 40 us for small request
 * sizes and bandwidth under 2 Gbps for large ones, despite the 10 Gbps
 * fabric — the cost of per-packet TCP/IP processing on wimpy cores.
 *
 * --out=PATH also writes the table as JSON, one row per size.
 */

#include <cstdio>
#include <string>

#include "baseline/tcp_stack.hh"
#include "bench/common.hh"
#include "sim/json.hh"
#include "sim/simulation.hh"

namespace {

using namespace sonuma;
using baseline::TcpPair;
using baseline::TcpParams;

/** Netpipe reports one-way latency = RTT/2 for the ping-pong test. */
double
latencyUs(std::uint32_t size, node::EventCounts *events)
{
    sim::Simulation sim;
    TcpPair tcp(sim.eq(), sim.stats(), TcpParams{});
    double us = 0;
    const int iters = 8;
    sim.spawn([](sim::Simulation *sim, TcpPair *tcp, std::uint32_t size,
                 int iters, double *out) -> sim::Task {
        const sim::Tick t0 = sim->now();
        for (int i = 0; i < iters; ++i)
            co_await tcp->pingPong(size);
        *out = sim::ticksToUs(sim->now() - t0) / (2.0 * iters);
    }(&sim, &tcp, size, iters, &us));
    sim.run();
    events->add(sim.eq(), iters);
    return us;
}

double
bandwidthGbps(std::uint32_t size, node::EventCounts *events)
{
    sim::Simulation sim;
    TcpPair tcp(sim.eq(), sim.stats(), TcpParams{});
    double gbps = 0;
    const int count = size >= 65536 ? 24 : 64;
    sim.spawn([](sim::Simulation *sim, TcpPair *tcp, std::uint32_t size,
                 int count, double *out) -> sim::Task {
        const sim::Tick t0 = sim->now();
        co_await tcp->stream(size, count);
        const double secs = sim::ticksToUs(sim->now() - t0) * 1e-6;
        *out = static_cast<double>(count) * size * 8.0 / secs / 1e9;
    }(&sim, &tcp, size, count, &gbps));
    sim.run();
    events->add(sim.eq(), count);
    return gbps;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv, {"out"});
    const std::string out = args.get("out", "");
    sim::JsonWriter w;
    w.beginArtifact("fig1_netpipe");
    w.key("rows").beginArray();

    std::printf("# Fig. 1: netpipe on a Calxeda-class microserver "
                "(TCP/IP deep-stack model)\n");
    std::printf("# 10 Gbps integrated fabric; per-packet kernel costs on "
                "wimpy cores dominate\n");
    std::printf("%-10s %14s %16s\n", "size(B)", "latency(us)",
                "bandwidth(Gbps)");
    for (std::uint32_t size :
         {64u, 256u, 1024u, 4096u, 16384u, 65536u, 262144u}) {
        node::EventCounts events;
        const double us = latencyUs(size, &events);
        const double gbps = bandwidthGbps(size, &events);
        std::printf("%-10u %14.1f %16.2f\n", size, us, gbps);
        w.beginObject()
            .field("size_bytes", size)
            .field("latency_us", us)
            .field("bandwidth_gbps", gbps);
        events.write(w);
        w.endObject();
    }
    std::printf("# paper shape: >40 us small-message latency, "
                "<2 Gbps large-message bandwidth\n");
    w.endArray().endObject();
    if (!out.empty())
        sim::writeFile(out, w.str());
    return 0;
}
