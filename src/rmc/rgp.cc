/**
 * @file
 * Request Generation Pipeline (paper §4.2, Fig. 3b top).
 *
 * Poll WQ -> fetch request -> init ITT entry -> unroll -> (read payload
 * for writes) -> generate packet(s) -> inject. Multi-line requests are
 * unrolled at the source into line-sized transactions so the destination
 * can stay stateless.
 */

#include "rmc/rmc.hh"

#include "sim/log.hh"

namespace sonuma::rmc {

sim::FireAndForget
Rmc::rgpLoop()
{
    while (true) {
        while (armedQps_.empty())
            co_await rgpWork_.wait();
        const QpRef ref = armedQps_.popFront();
        // Disarm before scanning: a doorbell during the scan re-arms the
        // QP and forces another scan, so no wake-up is lost.
        qpState(ref.ctx, ref.qpIndex).armed = false;
        co_await processWq(ref.ctx, ref.qpIndex);
    }
}

sim::Task
Rmc::processWq(sim::CtxId ctx, std::uint32_t qpIndex)
{
    const CtEntry *ce = liveQp(ctx, qpIndex); // re-fetched after suspensions
    if (!ce)
        co_return; // QP vanished (context teardown)
    const QpDescriptor qp = ce->qps[qpIndex];
    RingCursor &cursor = qpState(ctx, qpIndex).wq;

    // Per-QP arbitration: one turn consumes at most rgpQpBurst entries,
    // then the QP re-arms behind the other armed QPs. A re-armed QP's
    // next turn resumes with exactly the timed WQ read the continuing
    // loop would have issued, so a lone QP's timing is unchanged; with
    // several armed QPs the single request pipeline round-robins at
    // burst granularity instead of draining one ring to exhaustion.
    std::uint32_t burst = 0;
    while (true) {
        // Poll: timed read of the WQ entry's cache line. After a producer
        // store this misses in the RMC L1 and transfers cache-to-cache.
        const vm::VAddr entryVa = qp.wqEntryVa(cursor.index());
        std::optional<mem::PAddr> pa;
        co_await walker_.translate(ctx, entryVa, ce->ptRoot, &pa);
        // Re-validate after every suspension: a teardown fence may have
        // run while this coroutine slept, flush-completing the very
        // entry under the cursor. Touching the cursor after that would
        // double-complete it.
        ce = liveQp(ctx, qpIndex);
        if (!ce)
            co_return; // QP fenced during the translation
        if (!pa)
            co_return; // unmapped WQ (teardown)
        co_await maq_.read(*pa);
        ce = liveQp(ctx, qpIndex);
        if (!ce)
            co_return; // QP fenced during the WQ read

        WqEntry entry;
        phys_.read(*pa, &entry, sizeof(entry));
        if (entry.phase != cursor.expectedPhase())
            co_return; // no new work; RGP returns to the armed-QP queue

        wqEntriesProcessed_.inc();
        const std::uint32_t wqIndex = cursor.index();
        cursor.advance();
        co_await generateRequests(ctx, qpIndex, wqIndex, entry);
        if (++burst >= params_.rgpQpBurst) {
            armQp(ctx, qpIndex); // yield the pipeline, keep the claim
            co_return;
        }
    }
}

sim::Task
Rmc::generateRequests(sim::CtxId ctx, std::uint32_t qpIndex,
                      std::uint32_t wqIndex, const WqEntry &entry)
{
    const WqOp op = static_cast<WqOp>(entry.op);
    const bool isAtomic = op == WqOp::kCas || op == WqOp::kFetchAdd;
    const std::uint32_t numLines =
        isAtomic ? 1
                 : std::max<std::uint32_t>(
                       1, (entry.length + sim::kCacheLineBytes - 1) /
                              sim::kCacheLineBytes);

    // Allocate a transfer id and initialize its ITT entry (a memory
    // write through the MAQ, Fig. 3b "Init ITT Entry").
    std::uint32_t tidIndex = 0;
    co_await allocTid(&tidIndex);
    IttEntry &itt = itt_[tidIndex];
    itt.active = true;
    itt.ctx = ctx;
    itt.qpIndex = qpIndex;
    itt.wqIndex = wqIndex;
    itt.remaining = numLines;
    itt.total = numLines;
    itt.peer = entry.dstNid;
    itt.op = op;
    itt.error = false;
    itt.bufVa = entry.bufVa;
    itt.baseOffset = entry.offset;
    itt.attempt = 0;
    itt.retransmitPending = false;
    itt.unrolled = false;
    itt.operand1 = entry.operand1;
    itt.operand2 = entry.operand2;
    // Counted here — synchronously with the ITT init, so every freeTid
    // on this entry (the single decrement point) sees a counted entry.
    ++qpState(ctx, qpIndex).occ.wq;
    const std::uint16_t myEpoch = itt.epoch;
    // Close the teardown window between WQ consumption and ITT entry:
    // while this coroutine waited for a tid the op was invisible to a
    // fence (already consumed from the WQ, not yet in the ITT). If the
    // QP died meanwhile, self-flush — exactly one completion either way.
    if (!liveQp(ctx, qpIndex)) {
        abortTransfer(tidIndex, CqStatus::kFlushed);
        co_return;
    }
    co_await maq_.write(ittAddr(tidIndex));

    // Per-WQ-entry front-end cost (parse/schedule).
    co_await charge(emuFrontend_.get(),
                    params_.cycles(params_.rgpStageCycles),
                    params_.emuPerWqEntry);

    std::uint32_t sent = 0;
    co_await injectLines(tidIndex, myEpoch, 0, &sent);
    if (!itt.owns(myEpoch, 0))
        co_return; // fenced mid-unroll
    // Unrolled as far as it ever will be: the timeout clock may start.
    itt.unrolled = true;
    if (sent < itt.total) {
        // Unmapped local buffer: complete the WQ entry with an error.
        // Lines already injected will still reply, so the tid stays
        // live until they drain (tid reuse before that would mis-route
        // their replies). remaining counts the lines whose replies have
        // not arrived; cancel the never-sent ones.
        itt.error = true;
        itt.remaining -= itt.total - sent;
        itt.total = sent;
        if (itt.remaining == 0)
            co_await postCompletion(itt, tidIndex);
    }
}

sim::Task
Rmc::injectLines(std::uint32_t tidIndex, std::uint16_t epoch,
                 std::uint8_t attempt, std::uint32_t *sent)
{
    IttEntry &itt = itt_[tidIndex];
    const auto lane = static_cast<std::size_t>(fab::Lane::kRequest);
    *sent = 0;
    for (std::uint32_t i = 0; i < itt.total; ++i) {
        // Every step below can suspend, and a queue-pair fence may free
        // the slot meanwhile; the lines left belong to a transfer that
        // no longer exists, and the slot may already carry a new one.
        if (!itt.owns(epoch, attempt))
            co_return;
        fab::Message msg;
        msg.srcNid = nid_;
        msg.dstNid = itt.peer;
        msg.ctxId = itt.ctx;
        msg.tid = tidOf(epoch, tidIndex);
        msg.attempt = attempt;
        msg.offset =
            itt.baseOffset + std::uint64_t(i) * sim::kCacheLineBytes;

        switch (itt.op) {
          case WqOp::kRead:
            msg.op = fab::Op::kReadReq;
            break;
          case WqOp::kWrite: {
            msg.op = fab::Op::kWriteReq;
            // Fetch the local payload line through the MAQ. A live
            // transfer's QP is live (fences abort its transfers first),
            // so its CT entry exists.
            const vm::VAddr lineVa =
                itt.bufVa + std::uint64_t(i) * sim::kCacheLineBytes;
            std::optional<mem::PAddr> pa;
            co_await walker_.translate(itt.ctx, lineVa,
                                       ct_.entry(itt.ctx)->ptRoot, &pa);
            if (!itt.owns(epoch, attempt) || !pa)
                co_return; // aborted, or the local buffer is unmapped
            co_await maq_.read(*pa);
            if (!itt.owns(epoch, attempt))
                co_return;
            std::uint8_t line[sim::kCacheLineBytes];
            phys_.read(*pa, line, sizeof(line));
            msg.setPayload(line, sim::kCacheLineBytes);
            break;
          }
          case WqOp::kCas:
            msg.op = fab::Op::kCasReq;
            msg.operand1 = itt.operand1;
            msg.operand2 = itt.operand2;
            break;
          case WqOp::kFetchAdd:
            msg.op = fab::Op::kFetchAddReq;
            msg.operand1 = itt.operand1;
            break;
        }

        // Per-line pipeline occupancy, then inject, waiting for NI
        // space — but never for a transfer that stopped owning the slot.
        co_await charge(emuFrontend_.get(),
                        params_.cycles(params_.rgpPerLineCycles),
                        params_.emuPerLine);
        while (true) {
            if (!itt.owns(epoch, attempt))
                co_return;
            if (ni_.trySend(msg))
                break;
            co_await sendSpace_[lane].wait();
        }
        requestPacketsSent_.inc();
        ++*sent;
    }
}

sim::FireAndForget
Rmc::retransmitTransfer(std::uint32_t tidIndex)
{
    IttEntry &itt = itt_[tidIndex];
    const std::uint16_t myEpoch = itt.epoch;
    const std::uint8_t myAttempt = itt.attempt;

    // Capped deterministic backoff: attempt 1 resends after rnrBackoff,
    // each further attempt doubles, up to rnrBackoffCapDoublings.
    const std::uint32_t shift = std::min<std::uint32_t>(
        std::uint32_t(myAttempt) - 1, params_.rnrBackoffCapDoublings);
    co_await sim::Delay(eq_, params_.rnrBackoff << shift);

    // A newer sweep pass cannot re-own the entry while retransmitPending,
    // so an attempt mismatch after a suspension means the entry was
    // freed and reused.
    std::uint32_t sent = 0;
    co_await injectLines(tidIndex, myEpoch, myAttempt, &sent);
    if (!itt.owns(myEpoch, myAttempt))
        co_return;
    // A buffer unmapped between attempts (application bug) marks the
    // error; the next sweep pass aborts the transfer.
    if (sent < itt.total)
        itt.error = true;
    // Fresh deadline for this attempt; the sweep owns the entry again.
    itt.issuedAt = eq_.now();
    itt.retransmitPending = false;
}

} // namespace sonuma::rmc
