/**
 * @file
 * The fabric core shared by every topology plus the per-node network
 * interface (NI).
 *
 * The NI owns per-lane inject/eject queues connecting the RMC pipelines
 * to the fabric (paper Fig. 3a). Link-level flow control is credit based:
 * a packet occupies one credit from injection until the destination NI
 * accepts it into its eject queue, so a saturated receiver backpressures
 * the sender without dropping packets.
 *
 * One copy per packet: the fabric owns a sim::SlotPool<Message>, and
 * every packet lives in it from NetworkInterface::trySend, which copies
 * the RMC's message in, until one of four releases:
 * NetworkInterface::pop copies it out to the RMC; Fabric::drop loses it
 * to a fault; flushParked drops it at a failed node; tryInject swallows
 * it (dead source, unknown or dead destination). In between, NI
 * queues, park rings and links hold only its 4-byte PacketId.
 */

#ifndef SONUMA_FABRIC_FABRIC_HH
#define SONUMA_FABRIC_FABRIC_HH

#include <array>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fabric/message.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"
#include "sim/time_series.hh"
#include "sim/types.hh"

namespace sonuma::fab {

class NetworkInterface;

/** Handle of a packet in its fabric's pool. */
using PacketId = std::uint32_t;

/**
 * A link's serialization ticks for every payloadLen, built once: the
 * per-hop path then reads a table instead of dividing by the bandwidth.
 * Each entry is the same double expression the division gave.
 */
class SerializationTable
{
  public:
    explicit SerializationTable(double bytesPerSec)
    {
        for (std::size_t len = 0; len < ticks_.size(); ++len)
            ticks_[len] = static_cast<sim::Tick>(
                static_cast<double>(Message::kHeaderBytes + len) /
                bytesPerSec * 1e12);
    }

    /** Ticks to serialize @p msg's wireBytes(). */
    sim::Tick operator()(const Message &msg) const
    {
        return ticks_[msg.payloadLen];
    }

  private:
    std::array<sim::Tick,
               std::numeric_limits<decltype(Message::payloadLen)>::max() + 1>
        ticks_;
};

/**
 * The fabric core every topology shares: endpoints, per-(source, lane)
 * credits, deliver-or-park at the destination, and node faults (see
 * README.md). A topology adds only its path model through the private
 * hooks. Callbacks fire inline, a packet's credit returning right after
 * its delivery or drop, so the simulated event order is fixed.
 */
class Fabric
{
  public:
    virtual ~Fabric() = default;
    // NIs and scheduled events hold the fabric's address.
    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** Attach a node's NI. Must be called once per node id. */
    void attach(sim::NodeId id, NetworkInterface *ni);

    /**
     * Try to inject a pooled packet at its source node. Returns false
     * when the source has no credit on the packet's lane; the fabric
     * will invoke the NI's retry hook when a credit frees. A dead
     * source, an unknown destination or a dead destination swallows the
     * packet as dropped and releases it.
     */
    bool tryInject(PacketId id);

    /** Called by the destination NI when it frees eject-queue space. */
    void ejectSpaceFreed(sim::NodeId id, Lane lane);

    /**
     * Fail the node: packets to/from it (including any parked at its
     * eject queue) are dropped. Nobody is told; transfers that lose
     * packets recover through the RMC's timeout-driven retransmission.
     */
    void failNode(sim::NodeId id);

    /** Bring a failed node back. */
    void recoverNode(sim::NodeId id);

    /**
     * Fail the directed link @p from -> @p to: packets routed over it are
     * dropped (dor) or detoured (adaptive).
     * @throws std::invalid_argument if the link does not exist.
     */
    void failLink(sim::NodeId from, sim::NodeId to);

    /** Restore a failed link. */
    void recoverLink(sim::NodeId from, sim::NodeId to);

    /**
     * Mark the directed link @p from -> @p to lossy (transient drop
     * window): packets crossing it are silently dropped and counted.
     * Routing still treats the link as up.
     */
    void setLinkLossy(sim::NodeId from, sim::NodeId to, bool lossy);

    /**
     * Check that @p from -> @p to names a link of this fabric.
     * @throws std::invalid_argument with a precise message otherwise.
     */
    virtual void validateLink(sim::NodeId from, sim::NodeId to) const = 0;

    /** Number of attached nodes (the torus has all of its nodes). */
    std::size_t nodeCount() const { return endpoints_.size(); }

    /**
     * Messages dropped by faults, unified across topologies: dead-node
     * arrivals, dead-link crossings, lossy-window drops, parked packets
     * flushed by failNode, and (torus, adaptive) hop-cap victims all
     * land in this one counter.
     */
    std::uint64_t droppedMessages() const { return dropped_.value(); }

    /** Packets in the pool: sent and not yet popped or dropped. */
    std::size_t livePackets() const { return pool_.live(); }

    /** Mean hops of delivered messages (a crossbar crossing is one). */
    double
    meanHops() const
    {
        return delivered_.value() == 0
                   ? 0.0
                   : static_cast<double>(totalHops_.value()) /
                         static_cast<double>(delivered_.value());
    }

  protected:
    /**
     * @param prefix stat name prefix (\c fabric or \c torus)
     * @param nodes  endpoints that exist before any attach()
     */
    Fabric(sim::EventQueue &eq, sim::StatRegistry &stats,
           const std::string &prefix, std::uint32_t creditsPerLane,
           std::size_t nodes = 0);

    /** True if node @p id has failed. */
    bool failed(sim::NodeId id) const { return endpoints_[id].failed; }

    /**
     * The pooled packet @p id. The pool grows to the peak number of live
     * packets during warm-up, and a send that grows it moves every
     * slot: hold an id, not this reference, across any call that can
     * send.
     */
    Message &packet(PacketId id) { return pool_[id]; }

    /**
     * The packet reached its live destination after @p hops link
     * crossings: hand its id to the NI, or park it with its credit
     * while the eject queue is full.
     */
    void deliverOrPark(PacketId id, std::uint32_t hops);

    /** Drop an in-flight packet (fault): release it, return its credit. */
    void drop(PacketId id);

    static std::size_t li(Lane l) { return static_cast<std::size_t>(l); }

    sim::EventQueue &eq_;
    sim::StatRegistry &stats_;

  private:
    // The NI copies messages into and out of the pool.
    friend class NetworkInterface;

    /** A packet waiting at a full eject queue, with its hop count. */
    struct Parked
    {
        PacketId id = 0;
        std::uint32_t hops = 0;
    };

    struct Endpoint
    {
        NetworkInterface *ni = nullptr;
        bool failed = false;
        std::uint32_t credits[kNumLanes] = {0, 0};
        sim::RingBuffer<Parked> parked[kNumLanes];
    };

    std::uint32_t creditsPerLane_;
    std::vector<Endpoint> endpoints_;
    sim::SlotPool<Message> pool_;

    sim::Counter delivered_;
    sim::Counter dropped_;
    sim::Counter parkedCount_;
    sim::Counter totalHops_;

    /** A credited packet leaves its source toward its dstNid. */
    virtual void launch(PacketId id) = 0;

    /** Node @p id attached: create its probes when sampling is on. */
    virtual void attached(sim::NodeId id) = 0;

    /** Set the validated link @p from -> @p to up or down. */
    virtual void setLinkUp(sim::NodeId from, sim::NodeId to, bool up) = 0;

    /** Set or clear the validated link's drop window. */
    virtual void setLossy(sim::NodeId from, sim::NodeId to, bool lossy) = 0;

    void returnCredit(sim::NodeId src, Lane lane);
    void flushParked(Endpoint &ep);
};

/**
 * Per-node NI: a pair of inject queues and a pair of eject queues (one
 * per virtual lane), connected to the fabric on one side and the RMC
 * pipelines on the other.
 */
/** NI queue configuration. */
struct NiParams
{
    std::size_t injectQueueDepth = 16;
    std::size_t ejectQueueDepth = 16;
};

class NetworkInterface
{
  public:
    NetworkInterface(sim::EventQueue &eq, sim::StatRegistry &stats,
                     const std::string &name, sim::NodeId id, Fabric &fabric,
                     const NiParams &params = {});

    sim::NodeId nodeId() const { return id_; }

    //
    // Egress (RMC pipelines -> fabric)
    //

    /** Copy a message into the fabric's pool and queue it for injection.
     *  @retval false if the queue is full (nothing is copied). */
    bool trySend(const Message &msg);

    /** True if trySend would accept a message on @p lane. */
    bool canSend(Lane lane) const;

    /** Register a callback fired whenever send space frees on @p lane. */
    void onSendSpace(Lane lane, sim::Callback fn);

    //
    // Ingress (fabric -> RMC pipelines)
    //

    /** True if a message is waiting on @p lane. */
    bool hasMessage(Lane lane) const;

    /** Pop the oldest message on @p lane, releasing its pooled copy.
     *  @pre hasMessage(lane) */
    Message pop(Lane lane);

    /** Register a callback fired whenever a message arrives on @p lane. */
    void onArrival(Lane lane, sim::Callback fn);

    //
    // Fabric-side hooks
    //

    /** Fabric delivers pooled packet @p id on @p lane. @retval false if
     *  the eject queue is full (the fabric then holds the packet and its
     *  credit). */
    bool deliver(PacketId id, Lane lane);

    /** Fabric signals that credits freed on @p lane; retries injection. */
    void injectSpaceFreed(Lane lane);

    std::size_t injectDepth(Lane lane) const;
    std::size_t ejectDepth(Lane lane) const;

  private:
    sim::EventQueue &eq_;
    sim::NodeId id_;
    Fabric &fabric_;
    NiParams params_;

    sim::RingBuffer<PacketId> injectQ_[kNumLanes];
    sim::RingBuffer<PacketId> ejectQ_[kNumLanes];
    sim::Callback sendSpaceCb_[kNumLanes];
    sim::Callback arrivalCb_[kNumLanes];
    bool pumping_[kNumLanes] = {}; //!< pumpInject reentrancy guard

    sim::Counter sent_;
    sim::Counter received_;
    // Eject-queue depth probe (reply-path backpressure indicator);
    // created in the constructor when sampling is enabled.
    std::unique_ptr<sim::TimeSeries> ejectDepthProbe_;

    void pumpInject(Lane lane);

    std::size_t li(Lane l) const { return static_cast<std::size_t>(l); }
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_FABRIC_HH
