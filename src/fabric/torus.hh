/**
 * @file
 * k-ary n-cube (torus) fabric with dimension-order routing.
 *
 * Per-hop cost = router pin-to-pin delay + link serialization (per-link
 * FIFO servers, so contention queues show up in latency). Flow control is
 * end-to-end credit based per (source, lane): hop-by-hop VC buffer
 * occupancy is abstracted away, which preserves the latency/bandwidth
 * behaviour at the paper's load levels while guaranteeing deadlock
 * freedom by construction: no packet ever waits for a buffer inside the
 * network, because every output port is a work-conserving FIFO server
 * that always drains, and a packet that finds its eject queue full parks
 * at the destination holding only its end-to-end credit. Credits,
 * parking and node faults live in the Fabric base.
 *
 * Zero-allocation data path: each output port is a ring of in-flight
 * packets with precomputed hop-completion ticks and one drain event, the
 * same structure the crossbar uses for its egress pipes. A ring entry is
 * 16 bytes, {arrival tick, PacketId, next router, hops}: the packet
 * itself stays in the Fabric's pool from the source NI to the
 * destination NI's pop (or a drop), and each hop reads its routing
 * fields there and writes lastDir back in place.
 */

#ifndef SONUMA_FABRIC_TORUS_HH
#define SONUMA_FABRIC_TORUS_HH

#include <memory>
#include <vector>

#include "fabric/fabric.hh"
#include "fabric/router.hh"
#include "sim/serialized_link.hh"
#include "sim/time_series.hh"

namespace sonuma::fab {

/** Torus configuration. Defaults give a 4x4 2D torus of QPI-like links. */
struct TorusParams
{
    std::vector<std::uint32_t> dims = {4, 4};
    sim::Tick hopLatency = sim::nsToTicks(11.0); //!< Alpha 21364-like [39]
    double linkBandwidth = 25.6e9;               //!< bytes/s per link
    std::uint32_t creditsPerLane = 64;           //!< end-to-end, per source
    RoutingMode routing = RoutingMode::kDor;     //!< dor keeps artifacts stable
};

class TorusFabric : public Fabric
{
  public:
    TorusFabric(sim::EventQueue &eq, sim::StatRegistry &stats,
                const TorusParams &params = {});

    void validateLink(sim::NodeId from, sim::NodeId to) const override;

    const TorusRouting &routing() const { return routing_; }
    const TorusParams &params() const { return params_; }

  private:
    /** One packet traversing a link toward its next router. */
    struct InFlight
    {
        PacketId id = 0;
        sim::NodeId next = 0;
        std::uint16_t hops = 0; //!< at most hopCap_ (see the constructor)
    };
    static_assert(sizeof(InFlight) == 8, "a port ring entry is 16 bytes");

    /** One node's router: its output ports and their link state. */
    struct Router
    {
        // One serializing link per outgoing port per lane.
        std::vector<sim::SerializedLink<InFlight>> ports;
        // Physical link state per outgoing port (lanes share a link),
        // one bit per port. On a radix-2 dimension two ports reach the
        // same neighbour, so the state is per port, not per (from, to)
        // pair. A NodeId-sized torus has at most 16 dimensions of
        // radix >= 2, so 32 ports (the constructor checks).
        std::uint32_t linkDown = 0;
        std::uint32_t lossy = 0;

        bool up(std::uint32_t dir) const { return !(linkDown >> dir & 1); }
        bool drops(std::uint32_t dir) const { return lossy >> dir & 1; }
    };

    /** Sentinel "no usable direction" value (also Message::lastDir unset). */
    static constexpr std::uint32_t kNoDir = 0xff;

    TorusParams params_;
    TorusRouting routing_;
    SerializationTable ser_;
    std::vector<Router> routers_;
    std::uint32_t hopCap_; //!< adaptive-misroute livelock backstop

    // Per-(node, direction) link probes (utilization + queue depth),
    // created at attach() time; see docs/observability.md.
    std::vector<std::unique_ptr<sim::TimeSeries>> probes_;

    void launch(PacketId id) override;
    void attached(sim::NodeId id) override;
    void setLinkUp(sim::NodeId from, sim::NodeId to, bool up) override;
    void setLossy(sim::NodeId from, sim::NodeId to, bool lossy) override;

    void forward(sim::NodeId here, PacketId id, std::uint32_t hops);
    void drain(sim::NodeId node, std::uint32_t portIdx);
    std::uint32_t dirTo(sim::NodeId from, sim::NodeId to) const;
    std::uint32_t adaptiveDir(const Router &r, sim::NodeId here,
                              const Message &msg) const;
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_TORUS_HH
