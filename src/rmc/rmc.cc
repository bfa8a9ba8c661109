/**
 * @file
 * RMC top-level: construction, driver interface, shared helpers.
 */

#include "rmc/rmc.hh"

#include <cassert>

#include "sim/log.hh"

namespace sonuma::rmc {

Rmc::Rmc(sim::EventQueue &eq, sim::StatRegistry &stats,
         const std::string &name, sim::NodeId nid, const RmcParams &params,
         mem::PhysMem &phys, mem::L1Cache &l1, fab::NetworkInterface &ni,
         mem::PAddr ctBasePa, mem::PAddr ittBasePa)
    : eq_(eq), stats_(stats), name_(name), nid_(nid), params_(params),
      phys_(phys), ni_(ni),
      tlb_(stats, name + ".tlb", params.tlbEntries),
      maq_(eq, stats, name + ".maq", l1, params.maqEntries),
      walker_(stats, name + ".walker", phys, maq_, tlb_),
      ct_(stats, name + ".ct", ctBasePa, params.maxContexts,
          params.ctCacheEntries),
      ittBasePa_(ittBasePa),
      tidAvailable_(eq),
      armedQps_(std::size_t(params.maxContexts) * params.maxQpsPerContext),
      rgpWork_(eq),
      sendSpace_{sim::Condition(eq), sim::Condition(eq)},
      arrival_{sim::Condition(eq), sim::Condition(eq)},
      remoteWriteEvent_(eq),
      rrppSlots_(eq, params.maqEntries),
      rcpSlots_(eq, params.maqEntries),
      doorbellsRung_(stats, name + ".rgp.doorbells",
                     "software doorbells (WQ poll wake-ups)"),
      wqEntriesProcessed_(stats, name + ".rgp.wqEntries",
                          "WQ entries consumed"),
      requestPacketsSent_(stats, name + ".rgp.requestPackets",
                          "request packets injected"),
      requestsServiced_(stats, name + ".rrpp.requests",
                        "incoming requests serviced"),
      repliesProcessed_(stats, name + ".rcp.replies", "replies absorbed"),
      completionsPosted_(stats, name + ".rcp.completions",
                         "CQ entries written"),
      boundsErrors_(stats, name + ".rrpp.boundsErrors",
                    "requests outside the context segment"),
      badContextErrors_(stats, name + ".rrpp.badContext",
                        "requests for unregistered contexts"),
      atomicsExecuted_(stats, name + ".rrpp.atomics",
                       "remote atomics executed"),
      failureAborts_(stats, name + ".failureAborts",
                     "transfers aborted by an exhausted attempt budget "
                     "or teardown"),
      retransmits_(stats, name + ".retransmits",
                   "timed-out transfers retransmitted"),
      dupSuppressed_(stats, name + ".rrpp.dupSuppressed",
                     "replayed writes/atomics answered from the dedup "
                     "window"),
      unrecoverable_(stats, name + ".unrecoverable",
                     "transfers given up as unrecoverable (attempt "
                     "budget exhausted)"),
      dedup_(params.dedupWindow)
{
    itt_.reserve(params.maxTids);
    const std::size_t qps =
        std::size_t(params.maxContexts) * params.maxQpsPerContext;
    qps_.reserve(qps);
    while (qps_.size() < qps)
        qps_.emplace_back(params.qpEntries);

    if (stats_.samplingEnabled()) {
        ittProbe_ = std::make_unique<sim::TimeSeries>(
            stats_, name + ".ittOccupancy", "transfers",
            "active ITT entries (in-flight transfers)",
            sim::TimeSeries::Kind::kGauge,
            [this] { return static_cast<double>(itt_.live()); });
    }

    if (params_.emulation()) {
        emuFrontend_ = std::make_unique<sim::ServiceResource>(
            eq_, name + ".emuFrontend");
        emuRemote_ = std::make_unique<sim::ServiceResource>(
            eq_, name + ".emuRemote");
    }

    // NI wiring: arrivals wake the RRPP/RCP loops, freed send space wakes
    // blocked senders. Faults need no wiring: a dead peer, a dead self
    // or a dead link only loses packets, which the timeout sweep
    // retransmits.
    ni_.onArrival(fab::Lane::kRequest,
                  [this] { arrival_[0].notifyAll(); });
    ni_.onArrival(fab::Lane::kReply, [this] { arrival_[1].notifyAll(); });
    ni_.onSendSpace(fab::Lane::kRequest,
                    [this] { sendSpace_[0].notifyAll(); });
    ni_.onSendSpace(fab::Lane::kReply,
                    [this] { sendSpace_[1].notifyAll(); });

    // Start the three decoupled pipelines.
    rgpLoop();
    rrppLoop();
    rcpLoop();
}

void
Rmc::armQp(sim::CtxId ctx, std::uint32_t qpIndex)
{
    assert(ctx < params_.maxContexts && qpIndex < params_.maxQpsPerContext);
    QpState &q = qpState(ctx, qpIndex);
    if (!q.armed) {
        q.armed = true;
        armedQps_.push(QpRef{ctx, qpIndex});
        rgpWork_.notifyAll();
    }
}

void
Rmc::doorbell(sim::CtxId ctx, std::uint32_t qpIndex)
{
    doorbellsRung_.inc();
    armQp(ctx, qpIndex);
}

void
Rmc::setCompletionHook(sim::CtxId ctx, std::uint32_t qpIndex,
                       sim::Callback hook)
{
    qpState(ctx, qpIndex).completionHook = std::move(hook);
}

void
Rmc::noteQpCreated(sim::CtxId ctx, std::uint32_t qpIndex)
{
    QpState &q = qpState(ctx, qpIndex);
    if (!stats_.samplingEnabled() || q.probed)
        return;
    q.probed = true;
    const QpOccupancy *occ = &q.occ; // qps_ never reallocates
    const std::string base = name_ + ".ctx" + std::to_string(ctx) + ".qp" +
                             std::to_string(qpIndex);
    qpProbes_.push_back(std::make_unique<sim::TimeSeries>(
        stats_, base + ".wqOccupancy", "transfers",
        "WQ entries consumed, transfer not yet completed",
        sim::TimeSeries::Kind::kGauge,
        [occ] { return static_cast<double>(occ->wq); }));
    qpProbes_.push_back(std::make_unique<sim::TimeSeries>(
        stats_, base + ".cqOccupancy", "completions",
        "CQ entries written, not yet reaped by software",
        sim::TimeSeries::Kind::kGauge,
        [occ] { return static_cast<double>(occ->cq); }));
}

void
Rmc::noteCqConsumed(sim::CtxId ctx, std::uint32_t qpIndex)
{
    QpOccupancy &occ = qpState(ctx, qpIndex).occ;
    if (occ.cq > 0)
        --occ.cq;
}

const CtEntry *
Rmc::liveQp(sim::CtxId ctx, std::uint32_t qpIndex) const
{
    const CtEntry *ce = ct_.entry(ctx);
    if (!ce || qpIndex >= ce->qps.size() || !ce->qps[qpIndex].valid)
        return nullptr;
    return ce;
}

void
Rmc::postFunctionalCompletion(sim::CtxId ctx, std::uint32_t qpIndex,
                              std::uint32_t wqIndex, CqStatus status)
{
    const CtEntry *ce = ct_.entry(ctx);
    if (!ce || qpIndex >= ce->qps.size())
        return;
    const QpDescriptor &qp = ce->qps[qpIndex];
    QpState &q = qpState(ctx, qpIndex);
    RingCursor &cur = q.cq;
    CqEntry cq;
    cq.phase = cur.expectedPhase();
    cq.status = static_cast<std::uint8_t>(status);
    cq.wqIndex = static_cast<std::uint16_t>(wqIndex);
    cq.pad = 0;
    // Functional-only post: the RMC is aborting or draining, not
    // timing-accurately completing; applications just need to observe
    // the status (paper §5.1). CQ pages are pinned.
    const std::optional<mem::PAddr> pa = vm::PageTable::walk(
        phys_, ce->ptRoot, qp.cqEntryVa(cur.index()));
    if (!pa)
        return;
    phys_.write(*pa, &cq, sizeof(cq));
    cur.advance();
    completionsPosted_.inc();
    ++q.occ.cq;
    if (q.completionHook)
        q.completionHook();
}

void
Rmc::abortTransfer(std::uint32_t tidIndex, CqStatus status)
{
    IttEntry &e = itt_[tidIndex];
    assert(e.active);
    failureAborts_.inc();
    if (status == CqStatus::kFabricError)
        unrecoverable_.inc();
    // A flush (teardown) posts through the just-invalidated descriptor:
    // the driver clears `valid` before fencing, but the rings are still
    // mapped and the application still holds handles to drain.
    if (status == CqStatus::kFlushed || liveQp(e.ctx, e.qpIndex))
        postFunctionalCompletion(e.ctx, e.qpIndex, e.wqIndex, status);
    freeTid(tidIndex);
}

void
Rmc::fenceQueuePair(sim::CtxId ctx, std::uint32_t qpIndex)
{
    // 1. In-flight transfers of this (ctx, qp): one clean flushed
    //    completion each; freeTid bumps the epoch so late replies drop.
    for (std::uint32_t i = 0; i < itt_.size(); ++i) {
        const IttEntry &e = itt_[i];
        if (e.active && e.ctx == ctx && e.qpIndex == qpIndex)
            abortTransfer(i, CqStatus::kFlushed);
    }
    // 2. Posted-but-unconsumed WQ entries — including doorbell-batched
    //    ones that were never rung — flush-complete in ring order so
    //    every application post gets exactly one completion. Ops the
    //    RGP consumed but has not yet entered into the ITT (parked in
    //    allocTid) complete themselves: generateRequests re-checks the
    //    descriptor after allocation and self-aborts with kFlushed.
    const CtEntry *ce = ct_.entry(ctx);
    if (!ce || qpIndex >= ce->qps.size())
        return;
    const QpDescriptor &qp = ce->qps[qpIndex];
    RingCursor &cur = qpState(ctx, qpIndex).wq;
    while (true) {
        const std::optional<mem::PAddr> pa = vm::PageTable::walk(
            phys_, ce->ptRoot, qp.wqEntryVa(cur.index()));
        if (!pa)
            break;
        WqEntry entry;
        phys_.read(*pa, &entry, sizeof(entry));
        if (entry.phase != cur.expectedPhase())
            break;
        const std::uint32_t wqIndex = cur.index();
        cur.advance();
        postFunctionalCompletion(ctx, qpIndex, wqIndex,
                                 CqStatus::kFlushed);
    }
}

void
Rmc::scheduleSweep()
{
    if (sweepScheduled_ || params_.transferTimeout == 0)
        return;
    sweepScheduled_ = true;
    eq_.scheduleAfter(params_.transferTimeout / 2, [this] {
        sweepScheduled_ = false;
        sweepTimeouts();
    });
}

void
Rmc::sweepTimeouts()
{
    const sim::Tick now = eq_.now();
    for (std::uint32_t i = 0; i < itt_.size(); ++i) {
        IttEntry &e = itt_[i];
        // Skip entries a retransmit coroutine already owns and entries
        // the RGP is still unrolling (their deadline starts when the
        // last line leaves).
        if (!e.active || e.retransmitPending || !e.unrolled)
            continue;
        if (now - e.issuedAt < params_.transferTimeout)
            continue;
        // Transfers that already took a source-side error (unmapped
        // buffer) and transfers out of attempts abort; everything else
        // retransmits with capped deterministic backoff.
        if (e.error ||
            std::uint32_t(e.attempt) + 1 >= params_.maxAttempts) {
            abortTransfer(i, CqStatus::kFabricError);
            continue;
        }
        ++e.attempt;
        e.remaining = e.total;
        e.retransmitPending = true;
        retransmits_.inc();
        retransmitTransfer(i);
    }
    if (itt_.live() > 0)
        scheduleSweep();
}

sim::Step
Rmc::sendMessage(const fab::Message &msg)
{
    if (ni_.trySend(msg))
        return {};
    return sim::Step(sendWhenSpace(msg));
}

sim::Task
Rmc::sendWhenSpace(fab::Message msg)
{
    const auto lane = static_cast<std::size_t>(msg.lane());
    do
        co_await sendSpace_[lane].wait();
    while (!ni_.trySend(msg));
}

sim::Step
Rmc::allocTid(std::uint32_t *out)
{
    if (itt_.live() == params_.maxTids)
        return sim::Step(allocTidWhenFree(out));
    *out = takeTid();
    return {};
}

sim::Task
Rmc::allocTidWhenFree(std::uint32_t *out)
{
    do
        co_await tidAvailable_.wait();
    while (itt_.live() == params_.maxTids);
    *out = takeTid();
}

std::uint32_t
Rmc::takeTid()
{
    const std::uint32_t idx = itt_.acquire();
    itt_[idx].issuedAt = eq_.now();
    scheduleSweep();
    return idx;
}

void
Rmc::freeTid(std::uint32_t tidIndex)
{
    assert(tidIndex < itt_.size());
    // Every transfer release funnels through here, so this is the single
    // WQ-occupancy decrement matching generateRequests' increment. The
    // guard covers entries freed before their ITT init (never counted).
    IttEntry &e = itt_[tidIndex];
    QpOccupancy &occ = qpState(e.ctx, e.qpIndex).occ;
    if (occ.wq > 0)
        --occ.wq;
    assert(itt_.live() > 0);
    e.active = false;
    // Bump the per-entry epoch so a late reply for the old incarnation
    // of this tid cannot be confused with a future reuse.
    ++e.epoch;
    itt_.release(tidIndex);
    tidAvailable_.notifyAll();
}

} // namespace sonuma::rmc
