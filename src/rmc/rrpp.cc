/**
 * @file
 * Remote Request Processing Pipeline (paper §4.2, Fig. 3b bottom).
 *
 * Stateless servicing of incoming requests: decode -> CT lookup (CT$) ->
 * bounds check -> compute VA -> translate -> perform line read / write /
 * atomic -> generate reply. Uses only packet-header values plus local
 * configuration state, so the destination keeps no per-transfer state.
 */

#include "rmc/rmc.hh"

#include <cstring>

#include "sim/log.hh"

namespace sonuma::rmc {

sim::FireAndForget
Rmc::rrppLoop()
{
    const auto lane = static_cast<std::size_t>(fab::Lane::kRequest);
    while (true) {
        // Bound in-flight request servicing by the MAQ depth; excess
        // packets stay in the NI eject queue and backpressure the fabric.
        co_await rrppSlots_.acquire();
        while (!ni_.hasMessage(fab::Lane::kRequest))
            co_await arrival_[lane].wait();
        serviceRequest(ni_.pop(fab::Lane::kRequest));
    }
}

sim::FireAndForget
Rmc::serviceRequest(fab::Message msg)
{
    requestsServiced_.inc();
    fab::Message reply;
    co_await serve(msg, &reply);
    co_await sendMessage(reply);
    rrppSlots_.release();
}

sim::Task
Rmc::serve(const fab::Message &msg, fab::Message *reply)
{
    // Validate the wire-supplied payload length before it is ever used
    // as a copy size; a corrupt packet must not become a buffer overrun.
    if (!msg.payloadLenValid()) {
        boundsErrors_.inc();
        *reply = msg.makeReply(fab::Op::kErrorReply);
        co_return;
    }

    // Emulation platform: RMCemu discovers work by polling its queues;
    // the detection lag adds latency without occupying the thread.
    if (params_.emulation())
        co_await sim::Delay(eq_, params_.emuPollDelay);

    // Decode + per-request pipeline occupancy.
    co_await charge(emuRemote_.get(), params_.cycles(params_.rrppStageCycles),
                    params_.emuRrppPerLine);

    // CT lookup through the CT$; a miss costs a memory read of the CT
    // entry through the MAQ (paper §4.3).
    if (!ct_.cacheLookup(msg.ctxId)) {
        co_await maq_.read(ct_.entryAddr(msg.ctxId));
        ct_.fill(msg.ctxId);
    }
    const CtEntry *ce = ct_.entry(msg.ctxId);
    if (!ce) {
        badContextErrors_.inc();
        *reply = msg.makeReply(fab::Op::kErrorReply);
        co_return;
    }

    // Bounds check: the whole accessed span must sit inside the segment
    // registered for this context at this node.
    const std::uint64_t span =
        (msg.op == fab::Op::kCasReq || msg.op == fab::Op::kFetchAddReq)
            ? sizeof(std::uint64_t)
            : sim::kCacheLineBytes;
    if (msg.offset + span > ce->segBytes) {
        boundsErrors_.inc();
        *reply = msg.makeReply(fab::Op::kErrorReply);
        co_return;
    }

    // Compute the local VA and translate it (TLB / hardware walk).
    const vm::VAddr va = ce->segBase + msg.offset;
    std::optional<mem::PAddr> pa;
    co_await walker_.translate(msg.ctxId, va, ce->ptRoot, &pa);
    if (!pa) {
        // Registered segments are pinned, so this indicates teardown
        // racing with traffic; surface as a bounds error.
        boundsErrors_.inc();
        *reply = msg.makeReply(fab::Op::kErrorReply);
        co_return;
    }

    // Replay dedup (exactly-once for mutating ops): a retransmitted
    // write or atomic whose original execution succeeded — only the
    // reply was lost — must not execute again. Answer it with the
    // cached reply instead. Reads are idempotent and skip the window.
    // Purely functional (no cycles charged), so the no-loss path is
    // timing-identical.
    const bool mutating = msg.op != fab::Op::kReadReq;
    if (mutating) {
        if (const DedupWindow::Entry *d =
                dedup_.find(msg.srcNid, msg.tid, msg.offset)) {
            dupSuppressed_.inc();
            *reply = msg.makeReply(d->replyOp);
            if (d->replyOp == fab::Op::kAtomicReply)
                reply->setPayload(&d->oldValue, sizeof(d->oldValue));
            co_return;
        }
    }

    switch (msg.op) {
      case fab::Op::kReadReq: {
        co_await maq_.read(*pa);
        *reply = msg.makeReply(fab::Op::kReadReply);
        std::uint8_t line[sim::kCacheLineBytes];
        phys_.read(*pa, line, sizeof(line));
        reply->setPayload(line, sim::kCacheLineBytes);
        break;
      }
      case fab::Op::kWriteReq: {
        // Full-line store: allocate-on-miss without a stale fetch.
        co_await maq_.writeFullLine(*pa);
        phys_.write(*pa, msg.payload.data(), msg.payloadLen);
        *reply = msg.makeReply(fab::Op::kWriteReply);
        break;
      }
      case fab::Op::kCasReq: {
        // Atomic executed within the destination's coherence hierarchy:
        // the exclusive (M) acquisition serializes against all local
        // and remote accesses to the line (paper §7.4).
        co_await maq_.write(*pa);
        atomicsExecuted_.inc();
        const std::uint64_t old =
            phys_.compareSwap64(*pa, msg.operand1, msg.operand2);
        *reply = msg.makeReply(fab::Op::kAtomicReply);
        reply->setPayload(&old, sizeof(old));
        break;
      }
      case fab::Op::kFetchAddReq: {
        co_await maq_.write(*pa);
        atomicsExecuted_.inc();
        const std::uint64_t old = phys_.fetchAdd64(*pa, msg.operand1);
        *reply = msg.makeReply(fab::Op::kAtomicReply);
        reply->setPayload(&old, sizeof(old));
        break;
      }
      default:
        sim::panic("RRPP received a non-request opcode");
    }

    if (mutating) {
        // Local memory changed: wake software polling for unsolicited
        // messages (§5.3).
        remoteWriteEvent_.notifyAll();
        std::uint64_t old = 0;
        if (reply->op == fab::Op::kAtomicReply)
            std::memcpy(&old, reply->payload.data(), sizeof(old));
        dedup_.record(msg.srcNid, msg.tid, msg.offset, reply->op, old);
    }
}

} // namespace sonuma::rmc
