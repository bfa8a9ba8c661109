/**
 * @file
 * Full-crossbar fabric: the paper's simulated-hardware configuration
 * ("full crossbar with reliable links between RMCs and a flat latency of
 * 50 ns", §7.1).
 *
 * Each node has one egress serialization pipe per virtual lane; packets
 * then experience a flat propagation delay to any destination. Credits,
 * parking and node faults live in the Fabric base; this class holds only
 * the egress pipes, the directed link faults and the egress probes.
 *
 * Zero-allocation data path: in-flight packets sit in per-(source, lane)
 * ring buffers with precomputed arrival ticks (FIFO serialization makes
 * arrivals monotone per ring), and a single drain event per ring hands
 * them to the destination. A ring entry is 16 bytes, {arrival tick,
 * PacketId}: the packet itself stays in the Fabric's pool.
 */

#ifndef SONUMA_FABRIC_CROSSBAR_HH
#define SONUMA_FABRIC_CROSSBAR_HH

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "fabric/fabric.hh"
#include "sim/serialized_link.hh"
#include "sim/time_series.hh"

namespace sonuma::fab {

/** Crossbar configuration. */
struct CrossbarParams
{
    sim::Tick linkLatency = sim::nsToTicks(50.0); //!< one-way, flat
    double linkBandwidth = 12.8e9;                //!< bytes/s per node/lane (QPI-class)
    std::uint32_t creditsPerLane = 64;            //!< in-flight packets
};

class CrossbarFabric : public Fabric
{
  public:
    CrossbarFabric(sim::EventQueue &eq, sim::StatRegistry &stats,
                   const CrossbarParams &params = {});

    void validateLink(sim::NodeId from, sim::NodeId to) const override;

    const CrossbarParams &params() const { return params_; }

  private:
    /** Per-lane egress serialization pipes of one node. */
    using Egress = std::array<sim::SerializedLink<PacketId>, kNumLanes>;

    CrossbarParams params_;
    SerializationTable ser_;
    // Indexed by node id, grown at attach() like the base's endpoints.
    std::vector<Egress> egress_;
    // Per-node egress probes (utilization + queue depth), created at
    // attach() time. egress_ grows with attach(), so probe closures
    // index egress_[id] at sample time instead of caching addresses.
    std::vector<std::unique_ptr<sim::TimeSeries>> probes_;
    // Directed point-to-point link faults. Rack-scale crossbars have a few
    // faulted pairs at most, so a scanned vector keeps the healthy path
    // allocation- and hash-free.
    std::vector<std::pair<sim::NodeId, sim::NodeId>> failedLinks_;
    std::vector<std::pair<sim::NodeId, sim::NodeId>> lossyLinks_;

    void launch(PacketId id) override;
    void attached(sim::NodeId id) override;
    void setLinkUp(sim::NodeId from, sim::NodeId to, bool up) override;
    void setLossy(sim::NodeId from, sim::NodeId to, bool lossy) override;

    void drain(sim::NodeId src, Lane lane);
    void arrive(PacketId id);
    static void setMember(
        std::vector<std::pair<sim::NodeId, sim::NodeId>> &links,
        sim::NodeId from, sim::NodeId to, bool member);
    static bool contains(
        const std::vector<std::pair<sim::NodeId, sim::NodeId>> &links,
        sim::NodeId from, sim::NodeId to);
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_CROSSBAR_HH
