/**
 * @file
 * Request Completion Pipeline (paper §4.2, Fig. 3b middle).
 *
 * Absorb replies: decode -> ITT lookup by tid -> (for reads/atomics)
 * translate the target buffer address and store the payload -> update
 * ITT -> on the last line, write the CQ entry and recycle the tid.
 * Replies may arrive and complete out of order.
 */

#include "rmc/rmc.hh"

#include <cassert>

#include "sim/log.hh"

namespace sonuma::rmc {

sim::FireAndForget
Rmc::rcpLoop()
{
    // Completion-side arbitration across queue pairs is implicit:
    // replies are absorbed in NI arrival order, so no single QP's
    // transfers can monopolize the RCP beyond the share of reply
    // traffic the fabric actually delivered for them. rcpSlots_ bounds
    // total reply concurrency exactly like the hardware's buffer pool.
    const auto lane = static_cast<std::size_t>(fab::Lane::kReply);
    while (true) {
        co_await rcpSlots_.acquire();
        while (!ni_.hasMessage(fab::Lane::kReply))
            co_await arrival_[lane].wait();
        processReply(ni_.pop(fab::Lane::kReply));
    }
}

sim::FireAndForget
Rmc::processReply(fab::Message msg)
{
    co_await absorbReply(msg);
    rcpSlots_.release();
}

sim::Task
Rmc::absorbReply(const fab::Message &msg)
{
    const std::uint16_t ep = static_cast<std::uint16_t>(msg.tid >> 16);
    const std::uint32_t tidIndex = msg.tid & 0xffff;

    // Stale reply — for a freed tid incarnation (epoch) or from a
    // superseded attempt of a retransmitted transfer: drop it. The
    // retransmit already re-counts every line of the new attempt.
    if (tidIndex >= itt_.size() || !itt_[tidIndex].owns(ep, msg.attempt))
        co_return;
    IttEntry &itt = itt_[tidIndex];
    repliesProcessed_.inc();

    if (params_.emulation())
        co_await sim::Delay(eq_, params_.emuPollDelay);

    co_await charge(emuFrontend_.get(),
                    params_.cycles(params_.rcpStageCycles),
                    params_.emuPerReply);

    // The charges above suspend; a queue-pair fence or the timeout
    // sweep may have aborted this transfer and freed (epoch-bumped) its
    // tid meanwhile — or the sweep may have bumped the attempt,
    // superseding this reply. Re-check before reading buffer coordinates out of the
    // entry — the slot may already belong to a new transfer/attempt.
    if (!itt.owns(ep, msg.attempt))
        co_return;

    if (msg.op == fab::Op::kErrorReply || !msg.payloadLenValid()) {
        // Error replies and replies carrying an impossible payload
        // length (never trust the wire value as a copy size).
        itt.error = true;
    } else if (msg.op == fab::Op::kReadReply ||
               msg.op == fab::Op::kAtomicReply) {
        // Compute the destination buffer address from the WQ entry's
        // buffer base plus the line offset echoed in the reply (§4.2).
        const vm::VAddr dst = itt.bufVa + (msg.offset - itt.baseOffset);
        std::optional<mem::PAddr> pa;
        co_await walker_.translate(itt.ctx, dst, ct_.entry(itt.ctx)->ptRoot,
                                   &pa);
        // Translation suspends too: re-check before writing the error
        // flag (or payload bookkeeping) into an entry an abort may have
        // handed to a new transfer (or a sweep to a new attempt).
        if (!itt.owns(ep, msg.attempt))
            co_return;
        if (!pa) {
            itt.error = true; // local buffer unmapped (app bug)
        } else if (msg.op == fab::Op::kReadReply) {
            co_await maq_.writeFullLine(*pa);
            phys_.write(*pa, msg.payload.data(), msg.payloadLen);
        } else {
            co_await maq_.write(*pa);
            phys_.write(*pa, msg.payload.data(), msg.payloadLen);
        }
    }
    // Write replies need no application-memory update at the source.

    // Update the ITT ("Update ITT", a memory write through the MAQ).
    co_await maq_.write(ittAddr(tidIndex));
    // The payload/ITT writes suspend too — same abort/retransmit window
    // as above. Decrementing a freed entry would post a duplicate
    // completion for whatever transfer reuses the slot; decrementing a
    // re-attempted one would double-count this line.
    if (!itt.owns(ep, msg.attempt))
        co_return;
    // Always-on invariant (NDEBUG builds keep the net): a reply for a
    // live transfer with no lines outstanding means a stale reply
    // slipped the epoch check — the double-completion precursor.
    if (itt.remaining == 0)
        sim::fatal("RCP: reply for tid " + std::to_string(tidIndex) +
                   " with no outstanding lines (stale reply slipped the "
                   "epoch check?)");
    --itt.remaining;

    if (itt.remaining == 0)
        co_await postCompletion(itt, tidIndex);
}

sim::Task
Rmc::postCompletion(IttEntry &itt, std::uint32_t tidIndex)
{
    const CtEntry *ce = liveQp(itt.ctx, itt.qpIndex);
    if (!ce) {
        freeTid(tidIndex);
        co_return;
    }
    const QpDescriptor qp = ce->qps[itt.qpIndex];
    RingCursor &cursor = cqCursor_[itt.ctx][itt.qpIndex];

    // Claim the CQ slot *before* any suspension: concurrent completions
    // must each land in their own ring slot. A later-claimed slot may be
    // written earlier; the consumer polls in ring order and simply waits
    // for the earlier slot's phase flip.
    CqEntry cq;
    cq.phase = cursor.expectedPhase();
    cq.status = static_cast<std::uint8_t>(
        itt.error ? CqStatus::kBoundsError : CqStatus::kOk);
    cq.wqIndex = static_cast<std::uint16_t>(itt.wqIndex);
    cq.pad = 0;
    const vm::VAddr cqVa = qp.cqEntryVa(cursor.index());
    cursor.advance();

    // Release the ITT entry *before* any suspension, too: a queue-pair
    // fence or the timeout sweep scanning active entries
    // mid-write would otherwise abort this transfer a second time and
    // post a duplicate completion for the same WQ slot. The epoch bump
    // in freeTid drops any straggler replies for the old incarnation.
    const sim::CtxId ctx = itt.ctx;
    const std::uint32_t qpIndex = itt.qpIndex;
    const mem::PAddr ptRoot = ce->ptRoot;
    freeTid(tidIndex);

    std::optional<mem::PAddr> pa;
    co_await walker_.translate(ctx, cqVa, ptRoot, &pa);
    if (pa) {
        co_await maq_.write(*pa);
        phys_.write(*pa, &cq, sizeof(cq));
        completionsPosted_.inc();
        ++qpOcc_[ctx][qpIndex].cq;
    }

    if (completionHooks_[ctx][qpIndex])
        completionHooks_[ctx][qpIndex]();
}

} // namespace sonuma::rmc
