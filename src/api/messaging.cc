/**
 * @file
 * Messaging library implementation (push/pull over one-sided ops).
 */

#include "api/messaging.hh"

#include <cassert>
#include <cstring>

#include "sim/log.hh"

namespace sonuma::api {

namespace {

constexpr std::uint64_t
roundUpLine(std::uint64_t v)
{
    return (v + sim::kCacheLineBytes - 1) & ~std::uint64_t(63);
}

} // namespace

std::uint64_t
MsgEndpoint::regionBytes(const MsgParams &params)
{
    return std::uint64_t(params.ringSlots) * sim::kCacheLineBytes +
           2 * sim::kCacheLineBytes + params.pullBufferBytes;
}

MsgEndpoint::MsgEndpoint(RmcSession &session, sim::NodeId peerNid,
                         vm::VAddr mySegmentBase,
                         std::uint64_t myRegionOffset,
                         std::uint64_t peerRegionOffset,
                         const MsgParams &params)
    : session_(session), peer_(peerNid), params_(params),
      sendCursor_(params.ringSlots), recvCursor_(params.ringSlots)
{
    const std::uint64_t ringBytes =
        std::uint64_t(params.ringSlots) * sim::kCacheLineBytes;

    myRing_ = mySegmentBase + myRegionOffset;
    myCredits_ = myRing_ + ringBytes;
    myPullAck_ = myCredits_ + sim::kCacheLineBytes;
    myStaging_ = myPullAck_ + sim::kCacheLineBytes;

    peerRingOff_ = peerRegionOffset;
    peerCreditsOff_ = peerRegionOffset + ringBytes;
    peerPullAckOff_ = peerCreditsOff_ + sim::kCacheLineBytes;
    peerStagingOff_ = peerPullAckOff_ + sim::kCacheLineBytes;

    // Local scratch: per-ring-slot staging lines for in-flight slot
    // writes, a landing zone for pull reads, and a line for counters.
    stagingLines_ = session_.allocBuffer(ringBytes);
    pullLanding_ = session_.allocBuffer(params.pullBufferBytes);
    creditLine_ = session_.allocBuffer(sim::kCacheLineBytes);
    ackLine_ = session_.allocBuffer(sim::kCacheLineBytes);
}

sim::Task
MsgEndpoint::acquireSendSlot()
{
    auto &as = session_.process().addressSpace();
    while (true) {
        // Credit check: the peer writes its cumulative consumed-slot
        // count into our credits line.
        co_await session_.core().load(myCredits_);
        const auto returned = as.readT<std::uint64_t>(myCredits_);
        if (slotsSent_ - returned < params_.ringSlots)
            co_return;
        co_await session_.rmc().remoteWriteEvent().wait();
    }
}

sim::Task
MsgEndpoint::postSlot(const Slot &slot)
{
    const std::uint32_t idx = sendCursor_.index();
    auto &as = session_.process().addressSpace();

    // Copy the slot into its staging line (the RGP reads the payload
    // from here when it unrolls the write).
    const vm::VAddr lineVa =
        stagingLines_ + std::uint64_t(idx) * sim::kCacheLineBytes;
    Slot stamped = slot;
    stamped.phase = sendCursor_.expectedPhase();
    co_await session_.core().store(lineVa);
    as.write(lineVa, &stamped, sizeof(stamped));

    co_await session_.writeAsync(
        peer_, peerRingOff_ + std::uint64_t(idx) * sim::kCacheLineBytes,
        lineVa, sim::kCacheLineBytes);
    // Fire-and-forget on a possibly doorbell-batched session: the
    // endpoint later blocks on remoteWriteEvent (not on a session
    // completion), so the automatic flush-on-block never runs. Ring
    // now or the peer never sees the slot.
    session_.flush();

    sendCursor_.advance();
    ++slotsSent_;
}

sim::Task
MsgEndpoint::sendPush(const void *data, std::uint32_t len, SlotKind kind,
                      std::uint64_t stagingOff)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t sentBytes = 0;
    do {
        const std::uint32_t chunk =
            std::min<std::uint32_t>(kSlotPayload, len - sentBytes);
        co_await acquireSendSlot();

        Slot slot{};
        slot.kind = static_cast<std::uint8_t>(kind);
        slot.chunkLen = static_cast<std::uint16_t>(chunk);
        slot.msgLen = len;
        slot.stagingOff = stagingOff;
        if (bytes && chunk > 0)
            std::memcpy(slot.payload, bytes + sentBytes, chunk);

        // Packetization cost: a few cycles per chunk on the core.
        co_await session_.core().compute(8);
        co_await postSlot(slot);
        sentBytes += chunk;
    } while (sentBytes < len);
}

sim::Task
MsgEndpoint::sendPull(const void *data, std::uint32_t len)
{
    if (len > params_.pullBufferBytes)
        sim::fatal("message exceeds the pull staging buffer");
    auto &as = session_.process().addressSpace();
    const std::uint64_t need = roundUpLine(len);

    // Avoid wrapping a message across the staging buffer end.
    std::uint64_t cumOff = stagedBytes_;
    if ((cumOff % params_.pullBufferBytes) + need > params_.pullBufferBytes)
        cumOff += params_.pullBufferBytes -
                  (cumOff % params_.pullBufferBytes);

    // Flow control: wait until the receiver's cumulative ack frees room.
    while (true) {
        co_await session_.core().load(myPullAck_);
        const auto acked = as.readT<std::uint64_t>(myPullAck_);
        if (cumOff + need - acked <= params_.pullBufferBytes)
            break;
        co_await session_.rmc().remoteWriteEvent().wait();
    }

    // Stage the payload (a local memcpy: ~8 bytes per cycle).
    const vm::VAddr dst = myStaging_ + (cumOff % params_.pullBufferBytes);
    co_await session_.core().compute((need / 8));
    as.write(dst, data, len);
    stagedBytes_ = cumOff + need;

    // Push the descriptor; the receiver pulls and acks asynchronously.
    co_await acquireSendSlot();
    Slot desc{};
    desc.kind = static_cast<std::uint8_t>(kPullDesc);
    desc.chunkLen = 0;
    desc.msgLen = len;
    desc.stagingOff = cumOff;
    co_await session_.core().compute(8);
    co_await postSlot(desc);
}

sim::Task
MsgEndpoint::send(const void *data, std::uint32_t len)
{
    assert(len > 0);
    if (len <= params_.pushThreshold)
        co_await sendPush(data, len, kData, 0);
    else
        co_await sendPull(data, len);
}

sim::Task
MsgEndpoint::waitForSlotPhase(Slot *out)
{
    auto &as = session_.process().addressSpace();
    const vm::VAddr slotVa =
        myRing_ +
        std::uint64_t(recvCursor_.index()) * sim::kCacheLineBytes;
    while (true) {
        // Timed poll load first; the functional inspection and (on a
        // miss) the wait registration then happen in one synchronous
        // segment of the event loop, so a write landing during the load
        // cannot be lost between check and sleep.
        co_await session_.core().load(slotVa);
        Slot slot;
        as.read(slotVa, &slot, sizeof(slot));
        if (slot.phase == recvCursor_.expectedPhase()) {
            *out = slot;
            co_return;
        }
        co_await session_.rmc().remoteWriteEvent().wait();
    }
}

sim::Task
MsgEndpoint::returnCreditsIfDue()
{
    if (slotsConsumed_ - creditsReturnedAt_ < params_.ringSlots / 2)
        co_return;
    creditsReturnedAt_ = slotsConsumed_;
    auto &as = session_.process().addressSpace();
    co_await session_.core().store(creditLine_);
    as.writeT<std::uint64_t>(creditLine_, slotsConsumed_);
    co_await session_.writeAsync(peer_, peerCreditsOff_, creditLine_,
                                 sim::kCacheLineBytes);
    session_.flush(); // fire-and-forget credit return (see postSlot)
}

sim::Task
MsgEndpoint::receive(std::vector<std::uint8_t> *out)
{
    auto &as = session_.process().addressSpace();

    Slot first;
    co_await waitForSlotPhase(&first);
    recvCursor_.advance();
    ++slotsConsumed_;

    out->resize(first.msgLen);

    if (first.kind == kData) {
        std::uint32_t got = 0;
        if (first.chunkLen > 0) {
            std::memcpy(out->data(), first.payload, first.chunkLen);
            got = first.chunkLen;
        }
        while (got < first.msgLen) {
            Slot next;
            co_await waitForSlotPhase(&next);
            recvCursor_.advance();
            ++slotsConsumed_;
            assert(next.kind == kData && next.msgLen == first.msgLen);
            std::memcpy(out->data() + got, next.payload, next.chunkLen);
            got += next.chunkLen;
            // Return credits mid-message: a message longer than the
            // ring would otherwise deadlock against flow control.
            co_await returnCreditsIfDue();
        }
    } else {
        assert(first.kind == kPullDesc);
        // Pull the payload straight out of the sender's staging buffer.
        const std::uint64_t need = roundUpLine(first.msgLen);
        const std::uint64_t off =
            first.stagingOff % params_.pullBufferBytes;
        const OpResult pull = co_await session_.read(
            peer_, peerStagingOff_ + off, pullLanding_,
            static_cast<std::uint32_t>(need));
        if (!pull.ok())
            sim::fatal("pull read failed");
        as.read(pullLanding_, out->data(), first.msgLen);

        // Ack: cumulative bytes (line-rounded) pulled so far.
        pulledBytes_ = first.stagingOff + need;
        co_await session_.core().store(ackLine_);
        as.writeT<std::uint64_t>(ackLine_, pulledBytes_);
        co_await session_.writeAsync(peer_, peerPullAckOff_, ackLine_,
                                     sim::kCacheLineBytes);
        session_.flush(); // fire-and-forget pull ack (see postSlot)
    }

    co_await returnCreditsIfDue();
}

} // namespace sonuma::api
