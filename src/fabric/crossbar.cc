/**
 * @file
 * Crossbar fabric implementation.
 */

#include "fabric/crossbar.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sonuma::fab {

CrossbarFabric::CrossbarFabric(sim::EventQueue &eq,
                               sim::StatRegistry &stats,
                               const CrossbarParams &params)
    : Fabric(eq, stats, "fabric", params.creditsPerLane), params_(params),
      ser_(params.linkBandwidth)
{
}

void
CrossbarFabric::attached(sim::NodeId id)
{
    egress_.resize(nodeCount());

    if (!stats_.samplingEnabled())
        return;
    // Per-node egress probes; lanes share the node's egress bandwidth
    // budget, so their busy time and depth are summed.
    const std::string base = "fabric.node" + std::to_string(id) + ".egress";
    probes_.push_back(std::make_unique<sim::TimeSeries>(
        stats_, base + ".util", "fraction",
        "egress pipe serialization utilization",
        sim::TimeSeries::Kind::kRate, [this, id] {
            sim::Tick busy = 0;
            for (const auto &link : egress_[id])
                busy += link.busyThrough(eq_.now());
            return static_cast<double>(busy);
        }));
    probes_.push_back(std::make_unique<sim::TimeSeries>(
        stats_, base + ".qdepth", "packets",
        "packets serialized or in flight from this node",
        sim::TimeSeries::Kind::kGauge, [this, id] {
            std::size_t depth = 0;
            for (const auto &link : egress_[id])
                depth += link.queued();
            return static_cast<double>(depth);
        }));
}

void
CrossbarFabric::launch(PacketId id)
{
    // Serialize on the per-lane egress pipe, then propagate (flat).
    const Message &msg = packet(id);
    const sim::NodeId srcId = msg.srcNid;
    const Lane lane = msg.lane();
    auto &link = egress_[srcId][li(lane)];
    link.push(eq_.now(), ser_(msg), params_.linkLatency, id);
    link.arm(eq_, [this, srcId, lane] { drain(srcId, lane); });
}

void
CrossbarFabric::drain(sim::NodeId srcId, Lane lane)
{
    egress_[srcId][li(lane)].drain(
        eq_, [this](PacketId id) { arrive(id); },
        [this, srcId, lane] { drain(srcId, lane); });
}

void
CrossbarFabric::arrive(PacketId id)
{
    // Link faults are checked at arrival so packets already serialized
    // when the link died are lost too, matching a real cable pull.
    const Message &msg = packet(id);
    if (failed(msg.dstNid) || contains(failedLinks_, msg.srcNid, msg.dstNid) ||
        contains(lossyLinks_, msg.srcNid, msg.dstNid)) {
        drop(id);
        return;
    }
    deliverOrPark(id, 1);
}

bool
CrossbarFabric::contains(
    const std::vector<std::pair<sim::NodeId, sim::NodeId>> &links,
    sim::NodeId from, sim::NodeId to)
{
    return std::find(links.begin(), links.end(),
                     std::make_pair(from, to)) != links.end();
}

void
CrossbarFabric::setMember(
    std::vector<std::pair<sim::NodeId, sim::NodeId>> &links,
    sim::NodeId from, sim::NodeId to, bool member)
{
    auto it = std::find(links.begin(), links.end(), std::make_pair(from, to));
    if (member == (it != links.end()))
        return;
    if (member)
        links.emplace_back(from, to);
    else
        links.erase(it);
}

void
CrossbarFabric::validateLink(sim::NodeId from, sim::NodeId to) const
{
    if (from >= nodeCount() || to >= nodeCount())
        throw std::invalid_argument(
            "crossbar link " + std::to_string(from) + "->" +
            std::to_string(to) + ": node id out of range (crossbar has " +
            std::to_string(nodeCount()) + " nodes)");
    if (from == to)
        throw std::invalid_argument(
            "crossbar link " + std::to_string(from) + "->" +
            std::to_string(to) + ": a node has no link to itself");
}

void
CrossbarFabric::setLinkUp(sim::NodeId from, sim::NodeId to, bool up)
{
    setMember(failedLinks_, from, to, !up);
}

void
CrossbarFabric::setLossy(sim::NodeId from, sim::NodeId to, bool lossy)
{
    setMember(lossyLinks_, from, to, lossy);
}

} // namespace sonuma::fab
