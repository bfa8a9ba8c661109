/**
 * @file
 * Access-library implementation (v2 awaitable surface, multi-QP).
 */

#include "api/session.hh"

#include <cassert>
#include <cstring>

#include "sim/log.hh"

namespace sonuma::api {

namespace {

// Software overheads of the inline API functions, in core cycles: per
// posted op, per reaped completion and per empty poll.
constexpr std::uint32_t kIssueOverheadCycles = 120;
constexpr std::uint32_t kCompletionOverheadCycles = 70;
constexpr std::uint32_t kSyncPollOverheadCycles = 10;

rmc::WqEntry
makeEntry(rmc::WqOp op, sim::NodeId nid, std::uint64_t offset,
          vm::VAddr buf, std::uint32_t len, std::uint64_t operand1 = 0,
          std::uint64_t operand2 = 0)
{
    rmc::WqEntry e{};
    e.op = static_cast<std::uint8_t>(op);
    e.dstNid = nid;
    e.offset = offset;
    e.bufVa = buf;
    e.length = len;
    e.operand1 = operand1;
    e.operand2 = operand2;
    return e;
}

} // namespace

RmcSession::RmcSession(node::Core &core, os::RmcDriver &driver,
                       os::Process &proc, sim::CtxId ctx,
                       const SessionParams &params)
    : core_(core), driver_(driver), proc_(proc), ctx_(ctx), params_(params),
      nid_(driver.rmc().nodeId()),
      completionEvent_(core.simulation().eq())
{
    // Bind the thread's process to its core so timed loads/stores
    // translate in the right address space.
    core_.attachProcess(proc_);
    driver_.openContext(proc_, ctx_);

    std::uint32_t n = params_.qpCount != 0 ? params_.qpCount
                                           : driver_.rmc().params().qpCount;
    if (n == 0)
        sim::fatal("RmcSession: resolved qpCount is 0 (RmcParams was not "
                   "validated?)");
    qps_.resize(n);
    for (std::uint32_t q = 0; q < n; ++q) {
        QpState &qp = qps_[q];
        qp.handle = driver_.createQueuePair(proc_, ctx_);
        qp.wq = rmc::RingCursor(qp.handle.entries);
        qp.cq = rmc::RingCursor(qp.handle.entries);
        driver_.rmc().setCompletionHook(
            ctx_, qp.handle.qpIndex,
            [this] { completionEvent_.notifyAll(); });
        if (q == 0)
            qpEntries_ = qp.handle.entries;
        else if (qp.handle.entries != qpEntries_)
            sim::fatal("RmcSession: queue pairs of one session must share "
                       "one ring depth");
    }
    slotBusy_.assign(std::size_t(qpEntries_) * n, false);
    records_.assign(std::size_t(qpEntries_) * n, SlotRecord{});

    sim::StatRegistry &stats = core_.simulation().stats();
    if (stats.samplingEnabled()) {
        // Sessions are anonymous; claim the first free per-node index so
        // series names stay stable for a deterministic creation order.
        const std::string prefix = "node" + std::to_string(nid_) +
                                   ".session";
        std::uint32_t k = 0;
        while (stats.timeSeries(prefix + std::to_string(k) +
                                ".outstanding"))
            ++k;
        outstandingProbe_ = std::make_unique<sim::TimeSeries>(
            stats, prefix + std::to_string(k) + ".outstanding", "ops",
            "operations posted, completion not yet reaped",
            sim::TimeSeries::Kind::kGauge,
            [this] { return static_cast<double>(outstanding_); });
    }
}

vm::VAddr
RmcSession::scratchFor(std::uint32_t slot)
{
    if (atomicScratch_ == 0)
        atomicScratch_ = proc_.alloc(std::uint64_t(queueDepth()) *
                                     sim::kCacheLineBytes);
    return atomicScratch_ + std::uint64_t(slot) * sim::kCacheLineBytes;
}

bool
RmcSession::completionVisible(std::uint32_t slot, std::uint64_t token) const
{
    const SlotRecord &r = records_[slot];
    return r.token == token && r.completed;
}

std::uint32_t
RmcSession::nextSlot(std::uint32_t qp) const
{
    const std::uint32_t q = qp == kAnyQp ? rrNext_ : qp;
    if (q >= qpCount())
        sim::fatal("RmcSession::nextSlot: qp " + std::to_string(q) +
                   " out of range (session has " +
                   std::to_string(qpCount()) + " queue pairs)");
    return gslot(q, qps_[q].wq.index());
}

void
RmcSession::flush()
{
    if (pendingDoorbells_ == 0)
        return;
    for (QpState &q : qps_) {
        if (!q.doorbellPending)
            continue;
        q.doorbellPending = false;
        driver_.rmc().doorbell(ctx_, q.handle.qpIndex);
    }
    pendingDoorbells_ = 0;
}

sim::Task
RmcSession::reapAvailable(std::uint32_t *reaped)
{
    std::uint32_t n = 0;
    for (std::uint32_t q = 0; q < qpCount(); ++q) {
        QpState &qp = qps_[q];
        while (true) {
            const vm::VAddr entryVa = qp.handle.cqEntryVa(qp.cq.index());
            rmc::CqEntry entry;
            proc_.addressSpace().read(entryVa, &entry, sizeof(entry));
            if (entry.phase != qp.cq.expectedPhase())
                break;

            // Timed load of the CQ line + per-completion software cost.
            co_await core_.load(entryVa);
            co_await core_.compute(kCompletionOverheadCycles);

            const std::uint32_t slot = entry.wqIndex;
            const auto status = static_cast<rmc::CqStatus>(entry.status);
            if (slot >= qpEntries_)
                sim::fatal("CQ entry names WQ slot " +
                           std::to_string(slot) + " beyond the " +
                           std::to_string(qpEntries_) + "-entry ring");
            const std::uint32_t g = gslot(q, slot);
            // Always-on invariant (not an assert: NDEBUG builds must
            // keep the net): a completion for an idle slot means the
            // RMC completed one WQ entry twice.
            if (!slotBusy_[g])
                sim::fatal("CQ completion for idle WQ slot " +
                           std::to_string(slot) + " on qp " +
                           std::to_string(q) +
                           " (double completion?)");
            slotBusy_[g] = false;
            if (outstanding_ == 0)
                sim::fatal("CQ completion with no outstanding ops");
            --outstanding_;
            qp.cq.advance();
            driver_.rmc().noteCqConsumed(ctx_, qp.handle.qpIndex);
            ++n;

            SlotRecord &r = records_[g];
            if (r.completed)
                sim::fatal("completion for an already-completed slot "
                           "record (double completion?)");
            r.completed = true;
            r.status = status;
            r.completedAt = core_.simulation().now();
            if (r.atomic && status == rmc::CqStatus::kOk)
                r.oldValue =
                    proc_.addressSpace().readT<std::uint64_t>(r.bufVa);
        }
    }
    if (reaped)
        *reaped = n;
}

bool
RmcSession::cqEntryVisible() const
{
    for (const QpState &qp : qps_) {
        rmc::CqEntry entry;
        proc_.addressSpace().read(qp.handle.cqEntryVa(qp.cq.index()),
                                  &entry, sizeof(entry));
        if (entry.phase == qp.cq.expectedPhase())
            return true;
    }
    return false;
}

sim::Task
RmcSession::pollWait()
{
    // Batched posts must reach the RMC before this session sleeps on
    // their completions (deadlock otherwise); this is the "automatic at
    // suspension" half of the doorbell-batching contract.
    flush();
    co_await core_.compute(kSyncPollOverheadCycles);
    // A completion may have landed during the compute charge, with its
    // hook firing while no waiter was registered. Re-check the CQ heads
    // before sleeping: the check and the wait registration execute in
    // one event-loop step, so nothing can slip between them.
    if (!cqEntryVisible())
        co_await completionEvent_.wait();
}

sim::Task
RmcSession::acquireSlot(std::uint32_t qpHint, std::uint32_t *qp,
                        std::uint32_t *slot)
{
    std::uint32_t q;
    if (qpHint == kAnyQp) {
        q = rrNext_;
        rrNext_ = (rrNext_ + 1) % qpCount();
    } else {
        if (qpHint >= qpCount())
            sim::fatal("RmcSession: qp hint " + std::to_string(qpHint) +
                       " out of range (session has " +
                       std::to_string(qpCount()) + " queue pairs)");
        q = qpHint;
    }
    const std::uint32_t next = qps_[q].wq.index();
    while (slotBusy_[gslot(q, next)]) {
        std::uint32_t reaped = 0;
        co_await reapAvailable(&reaped);
        if (slotBusy_[gslot(q, next)] && reaped == 0)
            co_await pollWait();
    }
    *qp = q;
    *slot = next;
}

sim::ValueTask<OpHandle>
RmcSession::postOp(rmc::WqEntry entry, bool atomic, std::uint32_t qpHint)
{
    std::uint32_t q = 0, slot = 0;
    co_await acquireSlot(qpHint, &q, &slot);
    QpState &qp = qps_[q];
    const std::uint32_t g = gslot(q, slot);
    assert(slot == qp.wq.index() && !slotBusy_[g]);

    // Atomics land their old value in a per-slot scratch line; the slot
    // is only known now that the queue pair is chosen.
    if (atomic)
        entry.bufVa = scratchFor(g);
    entry.phase = qp.wq.expectedPhase();

    // Inline-function overhead + the producing store (one cache line).
    co_await core_.compute(kIssueOverheadCycles);
    if (!closed_) {
        const vm::VAddr entryVa = qp.handle.wqEntryVa(slot);
        co_await core_.store(entryVa);
        // close() may have landed during either charge above; its fence
        // already scanned the WQ, so a late functional write would
        // publish an entry nobody will ever consume. Skip it.
        if (!closed_)
            proc_.addressSpace().write(entryVa, &entry, sizeof(entry));
    }

    SlotRecord &r = records_[g];
    r.token = ++nextToken_;
    r.completed = false;
    r.atomic = atomic;
    r.status = rmc::CqStatus::kOk;
    r.postedAt = core_.simulation().now();
    r.completedAt = 0;
    r.bufVa = entry.bufVa;
    r.oldValue = 0;

    if (closed_) {
        // Post-close stub: the queue pairs are gone, so complete the op
        // immediately with kFlushed. No busy slot, no outstanding count
        // — there is no CQ entry coming, and drain() must not wait for
        // one. The cursor still advances so successive closed posts get
        // distinct slot records.
        r.completed = true;
        r.status = rmc::CqStatus::kFlushed;
        r.completedAt = r.postedAt;
        qp.wq.advance();
        co_return OpHandle(this, g, r.token);
    }

    slotBusy_[g] = true;
    ++outstanding_;
    qp.wq.advance();
    if (params_.doorbellBatching) {
        if (!qp.doorbellPending) {
            qp.doorbellPending = true;
            ++pendingDoorbells_;
        }
    } else {
        driver_.rmc().doorbell(ctx_, qp.handle.qpIndex);
    }
    co_return OpHandle(this, g, r.token);
}

sim::ValueTask<OpResult>
RmcSession::awaitCompletion(std::uint32_t slot, std::uint64_t token)
{
    while (true) {
        SlotRecord &r = records_[slot];
        if (r.token != token)
            sim::fatal("OpHandle awaited after its WQ slot was reused; "
                       "consume results within one ring lap");
        if (r.completed)
            break;
        std::uint32_t reaped = 0;
        co_await reapAvailable(&reaped);
        if (!records_[slot].completed && reaped == 0)
            co_await pollWait();
    }
    const SlotRecord &r = records_[slot];
    OpResult res;
    res.status = r.status;
    res.latency = r.completedAt - r.postedAt;
    res.completedAt = r.completedAt;
    res.oldValue = r.oldValue;
    co_return res;
}

//
// ------------------------- asynchronous posts --------------------------
//

sim::ValueTask<OpHandle>
RmcSession::readAsync(sim::NodeId nid, std::uint64_t offset, vm::VAddr buf,
                      std::uint32_t len, std::uint32_t qp)
{
    co_return co_await postOp(
        makeEntry(rmc::WqOp::kRead, nid, offset, buf, len),
        /*atomic=*/false, qp);
}

sim::ValueTask<OpHandle>
RmcSession::writeAsync(sim::NodeId nid, std::uint64_t offset, vm::VAddr buf,
                       std::uint32_t len, std::uint32_t qp)
{
    co_return co_await postOp(
        makeEntry(rmc::WqOp::kWrite, nid, offset, buf, len),
        /*atomic=*/false, qp);
}

sim::ValueTask<OpHandle>
RmcSession::fetchAddAsync(sim::NodeId nid, std::uint64_t offset,
                          std::uint64_t addend, std::uint32_t qp)
{
    // bufVa is filled in by postOp once the landing slot is known.
    co_return co_await postOp(
        makeEntry(rmc::WqOp::kFetchAdd, nid, offset, /*buf=*/0,
                  sizeof(std::uint64_t), addend),
        /*atomic=*/true, qp);
}

sim::ValueTask<OpHandle>
RmcSession::compareSwapAsync(sim::NodeId nid, std::uint64_t offset,
                             std::uint64_t expected, std::uint64_t desired,
                             std::uint32_t qp)
{
    co_return co_await postOp(
        makeEntry(rmc::WqOp::kCas, nid, offset, /*buf=*/0,
                  sizeof(std::uint64_t), expected, desired),
        /*atomic=*/true, qp);
}

//
// -------------------------- blocking wrappers --------------------------
//

sim::ValueTask<OpResult>
RmcSession::read(sim::NodeId nid, std::uint64_t offset, vm::VAddr buf,
                 std::uint32_t len)
{
    OpHandle h = co_await readAsync(nid, offset, buf, len);
    co_return co_await h;
}

sim::ValueTask<OpResult>
RmcSession::write(sim::NodeId nid, std::uint64_t offset, vm::VAddr buf,
                  std::uint32_t len)
{
    OpHandle h = co_await writeAsync(nid, offset, buf, len);
    co_return co_await h;
}

sim::ValueTask<OpResult>
RmcSession::fetchAdd(sim::NodeId nid, std::uint64_t offset,
                     std::uint64_t addend)
{
    OpHandle h = co_await fetchAddAsync(nid, offset, addend);
    co_return co_await h;
}

sim::ValueTask<OpResult>
RmcSession::compareSwap(sim::NodeId nid, std::uint64_t offset,
                        std::uint64_t expected, std::uint64_t desired)
{
    OpHandle h = co_await compareSwapAsync(nid, offset, expected, desired);
    co_return co_await h;
}

//
// ----------------------------- reaping ---------------------------------
//

sim::ValueTask<std::uint32_t>
RmcSession::poll()
{
    flush(); // batched posts become visible before their CQs are read
    std::uint32_t reaped = 0;
    co_await reapAvailable(&reaped);
    co_return reaped;
}

sim::Task
RmcSession::drain()
{
    flush();
    while (outstanding_ > 0) {
        std::uint32_t reaped = 0;
        co_await reapAvailable(&reaped);
        if (outstanding_ > 0 && reaped == 0)
            co_await pollWait();
    }
}

//
// ----------------------------- teardown --------------------------------
//

void
RmcSession::close(CloseMode mode)
{
    if (closed_)
        return;
    // Cancel batched doorbells instead of ringing them: the fence's WQ
    // scan flush-completes those entries, and ringing a dead QP would
    // bounce anyway. Must happen before the fence runs so a concurrent
    // pollWait() can't re-ring.
    for (QpState &q : qps_)
        q.doorbellPending = false;
    pendingDoorbells_ = 0;
    closed_ = true;
    // The fence posts a kFlushed completion for every in-flight op and
    // fires the completion hooks, so anyone parked in pollWait() wakes
    // and reaps normally.
    if (mode == CloseMode::kUnregisterContext) {
        driver_.unregisterContext(proc_, ctx_);
    } else {
        for (QpState &q : qps_)
            driver_.destroyQueuePair(q.handle);
    }
}

} // namespace sonuma::api
