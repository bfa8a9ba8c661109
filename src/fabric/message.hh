/**
 * @file
 * Wire-level message format of the soNUMA protocol (paper §6).
 *
 * The protocol layer is a stateless request/reply exchange: exactly one
 * reply per request. The routing header carries <dst_nid, src_nid>; the
 * protocol header carries <ctx_id, op, offset, tid>; the payload is at
 * most one cache line. The MTU is sized for header + 64 B payload, which
 * keeps buffering needs minimal (§3).
 */

#ifndef SONUMA_FABRIC_MESSAGE_HH
#define SONUMA_FABRIC_MESSAGE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "sim/types.hh"

namespace sonuma::fab {

/** Two virtual lanes give deadlock-free request/reply (paper §6). */
enum class Lane : std::uint8_t
{
    kRequest = 0,
    kReply = 1,
};

inline constexpr std::size_t kNumLanes = 2;

/** Protocol operations. Requests unroll to cache-line granularity. */
enum class Op : std::uint8_t
{
    kReadReq,
    kWriteReq,
    kCasReq,       //!< compare-and-swap, executed at the destination
    kFetchAddReq,  //!< fetch-and-add, executed at the destination
    kReadReply,
    kWriteReply,
    kAtomicReply,
    kErrorReply,   //!< bounds/permission violation signalled to source
};

/** True for the four request opcodes. */
constexpr bool
isRequest(Op op)
{
    return op == Op::kReadReq || op == Op::kWriteReq || op == Op::kCasReq ||
           op == Op::kFetchAddReq;
}

/** Lane a given opcode travels on. */
constexpr Lane
laneOf(Op op)
{
    return isRequest(op) ? Lane::kRequest : Lane::kReply;
}

/**
 * Payload length each opcode carries on the wire: full-line for write
 * requests and read replies, 8 bytes for atomic replies (the old value),
 * none otherwise (reads/atomics put operands in the header).
 */
constexpr std::uint8_t
expectedPayloadLen(Op op)
{
    switch (op) {
      case Op::kWriteReq:
      case Op::kReadReply:
        return static_cast<std::uint8_t>(sim::kCacheLineBytes);
      case Op::kAtomicReply:
        return sizeof(std::uint64_t);
      default:
        return 0;
    }
}

/**
 * One protocol message.
 *
 * Replies echo the request's tid (opaque to the destination) and offset;
 * the source RCP uses them to locate the ITT entry and compute the
 * destination buffer address for multi-line requests (§4.2).
 */
struct Message
{
    Op op = Op::kReadReq;
    sim::NodeId srcNid = 0;
    sim::NodeId dstNid = 0;
    sim::CtxId ctxId = 0;
    std::uint32_t tid = 0;
    std::uint64_t offset = 0;      //!< context-segment offset of the line
    std::uint64_t operand1 = 0;    //!< CAS compare / F&A addend
    std::uint64_t operand2 = 0;    //!< CAS swap value
    std::uint8_t payloadLen = 0;   //!< 0, 8 (atomics) or 64 bytes

    /**
     * Last output direction taken, set per hop by adaptive torus routing
     * to forbid immediate U-turns. Router-local scratch, not a wire
     * field: it does not contribute to wireBytes(). 0xff = none.
     */
    std::uint8_t lastDir = 0xff;

    /**
     * Retransmission attempt of the transfer this packet belongs to
     * (0 = first send). Together with the tid's epoch this forms the
     * (tid, epoch, attempt) sequence the source uses to discard stale
     * replies after a timeout-driven retransmit. Carried in existing
     * protocol-header padding, so it does not change kHeaderBytes or
     * wireBytes() — stamping it is timing-neutral.
     */
    std::uint8_t attempt = 0;

    // The payload comes last, so a router's per-hop reads (op, dstNid,
    // payloadLen, lastDir) sit in the first 42 bytes.
    std::array<std::uint8_t, sim::kCacheLineBytes> payload{};

    /** Fixed header size on the wire (routing + protocol). */
    static constexpr std::uint32_t kHeaderBytes = 24;

    /** Total wire footprint used for serialization timing. */
    std::uint32_t
    wireBytes() const
    {
        return kHeaderBytes + payloadLen;
    }

    Lane lane() const { return laneOf(op); }

    /** Build the reply skeleton for this request (src/dst swapped). */
    Message
    makeReply(Op replyOp) const
    {
        Message r;
        r.op = replyOp;
        r.srcNid = dstNid;
        r.dstNid = srcNid;
        r.ctxId = ctxId;
        r.tid = tid;
        r.offset = offset;
        // Replies echo the attempt so the source RCP can tell a reply
        // to the current attempt from one the fabric delivered late.
        r.attempt = attempt;
        return r;
    }

    void
    setPayload(const void *data, std::uint8_t len)
    {
        assert(len <= sim::kCacheLineBytes &&
               "payload exceeds one cache line");
        // The clamp must survive NDEBUG builds: a wire- or
        // computation-derived length must never overrun the array.
        if (len > sim::kCacheLineBytes)
            len = static_cast<std::uint8_t>(sim::kCacheLineBytes);
        payloadLen = len;
        std::memcpy(payload.data(), data, len);
    }

    /**
     * True if payloadLen is exactly what this message's opcode puts on
     * the wire. Receivers validate this instead of trusting the wire
     * value before using payloadLen as a copy length.
     */
    bool
    payloadLenValid() const
    {
        return payloadLen == expectedPayloadLen(op);
    }
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_MESSAGE_HH
