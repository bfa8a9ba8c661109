/**
 * @file
 * Unsolicited send/receive built entirely in software on one-sided
 * operations (paper §5.3).
 *
 * soNUMA provides no hardware send/receive; this library composes them
 * from remote writes and reads:
 *
 *  - push: the sender packetizes the message into cache-line slots and
 *    rmc-writes them into the peer's bounded ring; the receiver polls
 *    its local ring. Low latency for small messages; per-line
 *    packetization and copy costs for large ones.
 *  - pull: the sender stages the payload locally and pushes only a
 *    descriptor <offset, size>; the receiver rmc-reads the payload
 *    straight from the sender's staging buffer and acknowledges with a
 *    remote write of a cumulative byte counter. Higher bandwidth (no
 *    packetization), but an extra control round-trip.
 *
 * The push/pull boundary is the `pushThreshold` parameter, matching the
 * paper's compile-time threshold (0 forces pull, UINT32_MAX forces push).
 * Flow control is credit-based: push slots are recycled only after the
 * receiver writes back its consumed count (credits piggyback on a
 * dedicated line rather than on reverse traffic — same cost, simpler).
 */

#ifndef SONUMA_API_MESSAGING_HH
#define SONUMA_API_MESSAGING_HH

#include <cstdint>
#include <vector>

#include "api/session.hh"

namespace sonuma::api {

/** Messaging-layer configuration. */
struct MsgParams
{
    std::uint32_t ringSlots = 64;       //!< inbound ring, 64 B slots
    std::uint32_t pushThreshold = 256;  //!< <= threshold: push; else pull
    std::uint32_t pullBufferBytes = 256 * 1024; //!< staging region
};

/**
 * One endpoint of a bidirectional message channel between two nodes
 * sharing a context. Each endpoint owns a region inside its node's
 * context segment with the layout (offsets from the region base):
 *
 *   [0, R)        inbound ring: ringSlots x 64 B, written by the peer
 *   [R, R+64)     creditsReturned line, written by the peer
 *   [R+64, R+128) pullAck line (cumulative bytes pulled), written by peer
 *   [R+128, ...)  pull staging buffer, read remotely by the peer
 */
class MsgEndpoint
{
  public:
    /** Bytes of context segment one endpoint's region occupies. */
    static std::uint64_t regionBytes(const MsgParams &params);

    /**
     * @param session this thread's RMC session (context already joined).
     *        The endpoint posts fire-and-forget writes on the session's
     *        QP. v2 per-slot completions cannot be misrouted, so the
     *        owning coroutine may interleave its own (sequential)
     *        traffic on the same session; a concurrently-running
     *        coroutine must use its own session (see session.hh's
     *        concurrency contract).
     * @param peerNid the peer node
     * @param mySegmentBase local VA of this node's context segment
     * @param myRegionOffset offset of my region within my segment
     * @param peerRegionOffset offset of the peer's region within the
     *        peer's segment
     */
    MsgEndpoint(RmcSession &session, sim::NodeId peerNid,
                vm::VAddr mySegmentBase, std::uint64_t myRegionOffset,
                std::uint64_t peerRegionOffset,
                const MsgParams &params = {});

    /**
     * Send @p len bytes. Push sends return once all packets are posted
     * (decoupled); pull sends return once the descriptor is posted, with
     * the staging space recycled asynchronously on ack.
     */
    [[nodiscard]] sim::Task send(const void *data, std::uint32_t len);

    /** Blocking receive of exactly one message. */
    [[nodiscard]] sim::Task receive(std::vector<std::uint8_t> *out);

    /** Bytes of payload a single push slot carries. */
    static constexpr std::uint32_t kSlotPayload = 48;

  private:
    /** One cache-line ring slot. */
    struct Slot
    {
        std::uint8_t phase;
        std::uint8_t kind;         //!< SlotKind
        std::uint16_t chunkLen;    //!< payload bytes in this slot
        std::uint32_t msgLen;      //!< total message length
        std::uint64_t stagingOff;  //!< pull: offset in sender staging
        std::uint8_t payload[kSlotPayload];
    };
    static_assert(sizeof(Slot) == sim::kCacheLineBytes, "slot layout");

    enum SlotKind : std::uint8_t
    {
        kData = 1,
        kPullDesc = 2,
    };

    RmcSession &session_;
    sim::NodeId peer_;
    MsgParams params_;

    // Local (receive-side) addresses.
    vm::VAddr myRing_;
    vm::VAddr myCredits_;   //!< peer writes its consumed count here
    vm::VAddr myPullAck_;   //!< peer writes cumulative pulled bytes here
    vm::VAddr myStaging_;

    // Remote (send-side) offsets within the peer's segment.
    std::uint64_t peerRingOff_;
    std::uint64_t peerCreditsOff_;
    std::uint64_t peerPullAckOff_;
    std::uint64_t peerStagingOff_;

    // Send state.
    rmc::RingCursor sendCursor_;
    std::uint64_t slotsSent_ = 0;
    std::uint64_t stagedBytes_ = 0;   //!< cumulative bytes staged
    vm::VAddr stagingLines_;          //!< local copies for in-flight writes

    // Receive state.
    rmc::RingCursor recvCursor_;
    std::uint64_t slotsConsumed_ = 0;
    std::uint64_t creditsReturnedAt_ = 0;
    std::uint64_t pulledBytes_ = 0;   //!< cumulative bytes pulled
    vm::VAddr pullLanding_;           //!< buffer for pull reads
    vm::VAddr creditLine_;            //!< staging for credit returns
    vm::VAddr ackLine_;               //!< staging for pull acks

    sim::Task sendPush(const void *data, std::uint32_t len,
                       SlotKind kind, std::uint64_t stagingOff);
    sim::Task sendPull(const void *data, std::uint32_t len);
    sim::Task acquireSendSlot();           //!< credit flow control
    sim::Task postSlot(const Slot &slot);  //!< write one ring slot
    sim::Task waitForSlotPhase(Slot *out); //!< poll inbound ring
    sim::Task returnCreditsIfDue();
};

} // namespace sonuma::api

#endif // SONUMA_API_MESSAGING_HH
