/**
 * @file
 * Torus fabric implementation.
 */

#include "fabric/torus.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace sonuma::fab {

TorusFabric::TorusFabric(sim::EventQueue &eq, sim::StatRegistry &stats,
                         const TorusParams &params)
    : Fabric(eq, stats, "torus", params.creditsPerLane,
             TorusRouting(params.dims).nodeCount()),
      params_(params), routing_(params.dims), ser_(params.linkBandwidth)
{
    if (routing_.portCount() > 32)
        throw std::invalid_argument(
            "torus with " + std::to_string(routing_.dimensions()) +
            " dimensions: a router's link-state masks hold 32 ports, "
            "16 dimensions");
    routers_.resize(routing_.nodeCount());
    for (auto &r : routers_)
        r.ports.resize(routing_.portCount() * kNumLanes);
    // Misrouting around failures must terminate: a packet that crossed
    // far more links than any minimal-plus-detour path could need is
    // dropped (and counted) rather than allowed to livelock.
    // The cap also bounds a hop count to InFlight's 16 bits; dor paths
    // are at most sum(k / 2) <= 32768 hops long.
    std::uint32_t sumDims = 0;
    for (auto k : params_.dims)
        sumDims += k;
    hopCap_ = std::min<std::uint32_t>(4 * sumDims + 16, 0xffff);
}

void
TorusFabric::attached(sim::NodeId id)
{
    assert(id < routers_.size() && "node id exceeds torus size");

    if (!stats_.samplingEnabled())
        return;
    // One utilization + one queue-depth series per outgoing direction
    // (lanes share the physical link, so their busy time is summed).
    // routers_ is sized once in the constructor, so capturing the
    // Router's port vector through `this` + indices is stable.
    for (std::uint32_t dir = 0; dir < routing_.portCount(); ++dir) {
        const std::string base = "torus.node" + std::to_string(id) +
                                 ".link" + std::to_string(dir);
        probes_.push_back(std::make_unique<sim::TimeSeries>(
            stats_, base + ".util", "fraction",
            "link serialization utilization",
            sim::TimeSeries::Kind::kRate, [this, id, dir] {
                sim::Tick busy = 0;
                for (std::size_t l = 0; l < kNumLanes; ++l)
                    busy += routers_[id]
                                .ports[dir * kNumLanes + l]
                                .busyThrough(eq_.now());
                return static_cast<double>(busy);
            }));
        probes_.push_back(std::make_unique<sim::TimeSeries>(
            stats_, base + ".qdepth", "packets",
            "packets serialized or in flight on the link",
            sim::TimeSeries::Kind::kGauge, [this, id, dir] {
                std::size_t depth = 0;
                for (std::size_t l = 0; l < kNumLanes; ++l)
                    depth += routers_[id]
                                 .ports[dir * kNumLanes + l]
                                 .queued();
                return static_cast<double>(depth);
            }));
    }
}

void
TorusFabric::launch(PacketId id)
{
    forward(packet(id).srcNid, id, 0);
}

void
TorusFabric::forward(sim::NodeId here, PacketId id, std::uint32_t hops)
{
    if (failed(here)) {
        drop(id);
        return;
    }
    Message &msg = packet(id);
    if (msg.dstNid == here) {
        deliverOrPark(id, hops);
        return;
    }

    Router &r = routers_[here];
    std::uint32_t dir = kNoDir;
    if (params_.routing == RoutingMode::kAdaptive) {
        if (hops < hopCap_)
            dir = adaptiveDir(r, here, msg);
    } else {
        const std::uint32_t d = routing_.nextDir(here, msg.dstNid);
        if (r.up(d))
            dir = d;
    }
    // No usable link (dead dor link, adaptive hop cap or dead end), or
    // a transient drop window: the link looks up to routing but loses
    // the packet, with no notification; the sender's timeout recovers.
    if (dir == kNoDir || r.drops(dir)) {
        drop(id);
        return;
    }
    if (params_.routing == RoutingMode::kAdaptive)
        msg.lastDir = static_cast<std::uint8_t>(dir); // only it reads it
    const std::uint32_t portIdx =
        dir * static_cast<std::uint32_t>(kNumLanes) +
        static_cast<std::uint32_t>(msg.lane());
    auto &link = r.ports[portIdx];
    link.push(eq_.now(), ser_(msg), params_.hopLatency,
              InFlight{id, routing_.neighbor(here, dir),
                       static_cast<std::uint16_t>(hops + 1)});
    link.arm(eq_, [this, here, portIdx] { drain(here, portIdx); });
}

std::uint32_t
TorusFabric::adaptiveDir(const Router &r, sim::NodeId here,
                         const Message &msg) const
{
    // Deterministic minimal-detour selection: prefer the lowest-numbered
    // productive direction whose link is up, then any up link (misroute),
    // refusing the immediate U-turn unless it is the only link left.
    const std::uint32_t ports = routing_.portCount();
    const std::uint32_t avoid =
        msg.lastDir == kNoDir ? kNoDir : (msg.lastDir ^ 1u);
    for (std::uint32_t dir = 0; dir < ports; ++dir) {
        if (r.up(dir) && dir != avoid &&
            routing_.productive(here, msg.dstNid, dir))
            return dir;
    }
    for (std::uint32_t dir = 0; dir < ports; ++dir) {
        if (r.up(dir) && dir != avoid)
            return dir;
    }
    if (avoid != kNoDir && r.up(avoid))
        return avoid;
    return kNoDir;
}

void
TorusFabric::drain(sim::NodeId node, std::uint32_t portIdx)
{
    routers_[node].ports[portIdx].drain(
        eq_,
        [this](const InFlight &f) { forward(f.next, f.id, f.hops); },
        [this, node, portIdx] { drain(node, portIdx); });
}

std::uint32_t
TorusFabric::dirTo(sim::NodeId from, sim::NodeId to) const
{
    if (from >= routers_.size() || to >= routers_.size())
        throw std::invalid_argument(
            "torus link " + std::to_string(from) + "->" + std::to_string(to) +
            ": node id out of range (torus has " +
            std::to_string(routers_.size()) + " nodes)");
    if (from == to)
        throw std::invalid_argument(
            "torus link " + std::to_string(from) + "->" + std::to_string(to) +
            ": a node has no link to itself");
    for (std::uint32_t dir = 0; dir < routing_.portCount(); ++dir) {
        if (routing_.neighbor(from, dir) == to)
            return dir;
    }
    throw std::invalid_argument(
        "torus link " + std::to_string(from) + "->" + std::to_string(to) +
        " does not exist: the nodes are not torus neighbors");
}

void
TorusFabric::validateLink(sim::NodeId from, sim::NodeId to) const
{
    (void)dirTo(from, to);
}

void
TorusFabric::setLinkUp(sim::NodeId from, sim::NodeId to, bool up)
{
    const std::uint32_t bit = 1u << dirTo(from, to);
    std::uint32_t &down = routers_[from].linkDown;
    down = up ? down & ~bit : down | bit;
}

void
TorusFabric::setLossy(sim::NodeId from, sim::NodeId to, bool lossy)
{
    const std::uint32_t bit = 1u << dirTo(from, to);
    std::uint32_t &mask = routers_[from].lossy;
    mask = lossy ? mask | bit : mask & ~bit;
}

} // namespace sonuma::fab
