/**
 * @file
 * The Remote Memory Controller (paper §4) — soNUMA's core contribution.
 *
 * The RMC is an on-chip, hardwired protocol controller integrated into
 * the node's coherence hierarchy through a private L1 cache. It runs
 * three decoupled pipelines (Fig. 3):
 *
 *  - RGP (Request Generation):  polls registered WQs, unrolls multi-line
 *    requests, allocates transfer ids (ITT entries) and injects request
 *    packets into the NI.
 *  - RRPP (Remote Request Processing): statelessly services incoming
 *    requests — CT lookup, bounds check, virtual address computation,
 *    translation, line read/write/atomic, reply generation.
 *  - RCP (Request Completion): absorbs replies, writes payloads to the
 *    application's buffers, tracks per-request progress in the ITT, and
 *    posts CQ entries on completion.
 *
 * Each in-flight transaction is a coroutine; structural hazards (MAQ
 * depth, NI queues, ITT capacity) bound concurrency exactly as the
 * microarchitectural resources do in the paper.
 *
 * Modeling note — "doorbell": in hardware the RGP discovers new WQ
 * entries by polling a coherently-cached line (the producing store
 * invalidates the RMC's copy; the next poll misses and fetches it
 * cache-to-cache). A discrete-event simulation must not busy-poll, so
 * the software side *wakes* the RGP when it writes a WQ entry; the RGP
 * then performs the same timed WQ-line read it would have performed on
 * its next poll iteration. Detection timing therefore matches the
 * steady-polling hardware within one poll iteration.
 */

#ifndef SONUMA_RMC_RMC_HH
#define SONUMA_RMC_RMC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.hh"
#include "mem/cache.hh"
#include "mem/phys_mem.hh"
#include "rmc/context_table.hh"
#include "rmc/dedup_window.hh"
#include "rmc/maq.hh"
#include "rmc/page_walker.hh"
#include "rmc/params.hh"
#include "rmc/queue_pair.hh"
#include "rmc/tlb.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/service.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time_series.hh"

namespace sonuma::rmc {

/** In-flight transaction table entry (source-side transfer state). */
struct IttEntry
{
    bool active = false;
    std::uint16_t epoch = 0;    //!< bumped on free; drops stale replies
    sim::CtxId ctx = 0;
    std::uint32_t qpIndex = 0;
    std::uint32_t wqIndex = 0;
    std::uint32_t remaining = 0; //!< line replies still outstanding
    std::uint32_t total = 0;
    sim::NodeId peer = 0;        //!< destination node of the transfer
    WqOp op = WqOp::kRead;
    bool error = false;
    vm::VAddr bufVa = 0;
    std::uint64_t baseOffset = 0;
    sim::Tick issuedAt = 0;      //!< for the transfer timeout

    //
    // Reliable-delivery state. `attempt` tags every packet of the
    // transfer; replies carrying a stale attempt are dropped by the
    // RCP. `retransmitPending` parks the entry while a backoff/resend
    // coroutine owns it (the sweep must not double-fire). `unrolled`
    // flips once the RGP has injected (or error-skipped) every line —
    // the sweep ignores half-unrolled transfers, whose deadline starts
    // only when the last line leaves. Atomics keep their operands here
    // so a retransmit can rebuild the packets without the WQ entry.
    //
    std::uint8_t attempt = 0;
    bool retransmitPending = false;
    bool unrolled = false;
    std::uint64_t operand1 = 0;
    std::uint64_t operand2 = 0;

    /** True while this slot still holds attempt @p att of transfer
     *  incarnation @p ep: the re-check after every suspension. */
    bool
    owns(std::uint16_t ep, std::uint8_t att) const
    {
        return active && epoch == ep && attempt == att;
    }
};

/** In-memory footprint of one ITT entry (for MAQ timing addresses). */
inline constexpr std::uint64_t kIttEntryBytes = 32;

/**
 * One node's Remote Memory Controller.
 */
class Rmc
{
  public:
    Rmc(sim::EventQueue &eq, sim::StatRegistry &stats,
        const std::string &name, sim::NodeId nid, const RmcParams &params,
        mem::PhysMem &phys, mem::L1Cache &l1, fab::NetworkInterface &ni,
        mem::PAddr ctBasePa, mem::PAddr ittBasePa);

    Rmc(const Rmc &) = delete;
    Rmc &operator=(const Rmc &) = delete;

    //
    // Driver-facing interface (paper §5.1)
    //

    /** The Context Table (driver installs/removes entries). */
    ContextTable &contextTable() { return ct_; }

    /**
     * Software wake-up after a WQ entry store (see file header for why
     * this exists in a discrete-event model).
     */
    void doorbell(sim::CtxId ctx, std::uint32_t qpIndex);

    /** Hook invoked after each CQ entry write for (ctx, qp). */
    void setCompletionHook(sim::CtxId ctx, std::uint32_t qpIndex,
                           sim::Callback hook);

    /**
     * Condition notified after the RRPP applies a remote write or atomic
     * to this node's memory. Software that polls local memory for
     * unsolicited messages (paper §5.3) awaits this instead of
     * busy-polling the event queue; each wake-up still performs the same
     * timed loads the poll loop would have (see file-header note on the
     * doorbell shortcut).
     */
    sim::Condition &remoteWriteEvent() { return remoteWriteEvent_; }

    /**
     * Drain one queue pair after the driver invalidated its descriptor
     * (QP destroy / context unregister with ops in flight, §5.1). Every
     * op the application posted gets exactly one completion: transfers
     * already in the ITT abort with CqStatus::kFlushed (tid freed,
     * epoch bumped so late replies drop), and posted-but-unconsumed WQ
     * entries — including doorbell-batched ones that were never rung —
     * are flush-completed in ring order. Purely functional; the
     * descriptor must already be invalid when this is called.
     */
    void fenceQueuePair(sim::CtxId ctx, std::uint32_t qpIndex);

    //
    // Observability
    //

    /**
     * Driver notification that (ctx, qp) now exists: registers the
     * per-QP WQ/CQ occupancy time series (when sampling is enabled) at
     * setup time, so no series is ever allocated mid-measurement.
     */
    void noteQpCreated(sim::CtxId ctx, std::uint32_t qpIndex);

    /** Software reaped one CQ entry of (ctx, qp); keeps the occupancy
     *  gauge honest on the consumer side. */
    void noteCqConsumed(sim::CtxId ctx, std::uint32_t qpIndex);

    Tlb &tlb() { return tlb_; }
    Maq &maq() { return maq_; }
    const RmcParams &params() const { return params_; }
    sim::NodeId nodeId() const { return nid_; }

  private:
    sim::EventQueue &eq_;
    sim::StatRegistry &stats_;
    std::string name_;
    sim::NodeId nid_;
    RmcParams params_;
    mem::PhysMem &phys_;
    fab::NetworkInterface &ni_;

    Tlb tlb_;
    Maq maq_;
    PageWalker walker_;
    ContextTable ct_;
    mem::PAddr ittBasePa_;

    // ITT + tid management.
    std::vector<IttEntry> itt_;
    std::vector<std::uint32_t> freeTids_;
    std::uint32_t activeTids_ = 0;
    sim::Condition tidAvailable_;
    bool sweepScheduled_ = false;

    // RGP scheduling state. Armed QPs rotate through a fixed ring
    // (each QP appears at most once, so capacity is bounded by
    // maxContexts * maxQpsPerContext and the steady state never
    // allocates); processWq consumes at most rgpQpBurst WQ entries per
    // turn before the QP re-queues behind its peers.
    struct QpRef
    {
        sim::CtxId ctx = 0;
        std::uint32_t qpIndex = 0;
    };
    sim::RingBuffer<QpRef> armedQps_;
    std::vector<std::vector<bool>> qpArmed_;     //!< [ctx][qp]
    std::vector<std::vector<RingCursor>> wqCursor_;
    std::vector<std::vector<RingCursor>> cqCursor_;
    std::vector<std::vector<sim::Callback>> completionHooks_;
    sim::Condition rgpWork_;

    // Per-QP live occupancy, maintained unconditionally (two integer
    // bumps per op); exported as time series when sampling is on.
    std::vector<std::vector<QpOccupancy>> qpOcc_;    //!< [ctx][qp]
    std::vector<std::vector<bool>> qpProbed_;        //!< [ctx][qp]
    std::unique_ptr<sim::TimeSeries> ittProbe_;
    std::vector<std::unique_ptr<sim::TimeSeries>> qpProbes_;

    // NI wakeups.
    sim::Condition sendSpace_[fab::kNumLanes];
    sim::Condition arrival_[fab::kNumLanes];
    sim::Condition remoteWriteEvent_;

    // Emulation-platform software threads (RGP+RCP share one, RRPP owns
    // the other, as RMCemu does in §7.1).
    std::unique_ptr<sim::ServiceResource> emuFrontend_;
    std::unique_ptr<sim::ServiceResource> emuRemote_;

    // Concurrency bounds for request/reply servicing.
    sim::Semaphore rrppSlots_;
    sim::Semaphore rcpSlots_;

    // Stats.
    sim::Counter doorbellsRung_;
    sim::Counter wqEntriesProcessed_;
    sim::Counter requestPacketsSent_;
    sim::Counter requestsServiced_;
    sim::Counter repliesProcessed_;
    sim::Counter completionsPosted_;
    sim::Counter boundsErrors_;
    sim::Counter badContextErrors_;
    sim::Counter atomicsExecuted_;
    sim::Counter failureAborts_;
    sim::Counter retransmits_;
    sim::Counter dupSuppressed_;
    sim::Counter unrecoverable_;

    // RRPP replay-dedup window (README "Exactly-once execution").
    DedupWindow dedup_;

    //
    // Pipelines (one .cc file each).
    //

    sim::FireAndForget rgpLoop();                          // rgp.cc
    sim::Task processWq(sim::CtxId ctx, std::uint32_t qp); // rgp.cc
    sim::Task generateRequests(sim::CtxId ctx, std::uint32_t qpIndex,
                               std::uint32_t wqIndex,
                               const WqEntry &entry);      // rgp.cc

    /**
     * Build and inject every line of attempt @p attempt of transfer
     * @p tidIndex from its ITT entry. Stops once the entry no longer
     * owns (@p epoch, @p attempt), checked after every suspension and
     * before every injection, or at the first unmapped write-payload
     * line; @p sent receives the number of lines injected.
     */
    sim::Task injectLines(std::uint32_t tidIndex, std::uint16_t epoch,
                          std::uint8_t attempt,
                          std::uint32_t *sent);            // rgp.cc

    sim::FireAndForget rrppLoop();                         // rrpp.cc
    sim::FireAndForget serviceRequest(fab::Message msg);   // rrpp.cc
    /** Service one request into @p reply: an error reply, the cached
     *  reply of a replay, or the executed access's reply. */
    sim::Task serve(const fab::Message &msg,
                    fab::Message *reply);                  // rrpp.cc

    sim::FireAndForget rcpLoop();                          // rcp.cc
    sim::FireAndForget processReply(fab::Message msg);     // rcp.cc
    /** Land one reply in its transfer; drops stale ones. */
    sim::Task absorbReply(const fab::Message &msg);        // rcp.cc
    sim::Task postCompletion(IttEntry &itt,
                             std::uint32_t tidIndex);      // rcp.cc

    //
    // Shared helpers (rmc.cc)
    //

    /**
     * Awaiter of charge(). Emulation always submits to the software
     * thread, even at cost 0 (its FIFO order is the model); hardware
     * is ready at cost 0 and otherwise resumes @p cost later.
     */
    struct Charge
    {
        sim::EventQueue &eq;
        sim::ServiceResource *emuThread; //!< null on hardware
        sim::Tick cost;

        bool await_ready() const noexcept { return !emuThread && cost == 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            if (emuThread)
                emuThread->submit(cost, [h] { h.resume(); }, h.address());
            else
                eq.scheduleAfter(cost, [h] { h.resume(); }, h.address());
        }

        void await_resume() const noexcept {}
    };

    /** Charge pipeline occupancy: hardware stage cycles or emulated
     *  software service time on @p emuThread, depending on the
     *  platform. */
    [[nodiscard]] Charge
    charge(sim::ServiceResource *emuThread, sim::Tick hwCost,
           sim::Tick emuCost)
    {
        if (params_.emulation())
            return {eq_, emuThread, emuCost};
        return {eq_, nullptr, hwCost};
    }

    /** Inject @p msg, waiting for NI space only if it has none. */
    sim::Step sendMessage(const fab::Message &msg);
    sim::Task sendWhenSpace(fab::Message msg);

    /** Allocate a transfer id, waiting only if the ITT is full. */
    sim::Step allocTid(std::uint32_t *out);
    sim::Task allocTidWhenFree(std::uint32_t *out);
    /** Take the top free tid: count it active, start its timeout
     *  clock and make sure a sweep is scheduled. */
    std::uint32_t takeTid();
    void freeTid(std::uint32_t tidIndex);

    /** Arm (ctx, qp) for the RGP if it is not already queued. */
    void armQp(sim::CtxId ctx, std::uint32_t qpIndex);

    /** @p ctx's CT entry if its queue pair @p qpIndex exists and is not
     *  fenced, else nullptr. */
    const CtEntry *liveQp(sim::CtxId ctx, std::uint32_t qpIndex) const;

    /**
     * Timeout-driven resend of every line of transfer @p tidIndex
     * (attempt already bumped by the sweep): waits out the capped
     * exponential backoff, then re-injects through injectLines. Bails
     * silently if the entry is freed or re-bumped while suspended.
     */
    sim::FireAndForget retransmitTransfer(std::uint32_t tidIndex); // rgp.cc

    /** Abort one transfer with a (functional) error completion. */
    void abortTransfer(std::uint32_t tidIndex, CqStatus status);

    /** Functionally write one CQ entry for (ctx, qp) and fire hooks. */
    void postFunctionalCompletion(sim::CtxId ctx, std::uint32_t qpIndex,
                                  std::uint32_t wqIndex, CqStatus status);

    /** Timeout sweep over active ITT entries. */
    void scheduleSweep();
    void sweepTimeouts();

    mem::PAddr
    ittAddr(std::uint32_t tidIndex) const
    {
        return ittBasePa_ + std::uint64_t(tidIndex) * kIttEntryBytes;
    }

    std::uint32_t
    tidOf(std::uint16_t ep, std::uint32_t index) const
    {
        return (std::uint32_t(ep) << 16) | index;
    }

    friend class RmcTestPeer;
};

} // namespace sonuma::rmc

#endif // SONUMA_RMC_RMC_HH
