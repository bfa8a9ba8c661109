/**
 * @file
 * The soNUMA access library, v2 (paper §5.2, Fig. 4).
 *
 * Applications issue one-sided remote reads/writes/atomics against a
 * global address space (context) through a queue pair. Every operation
 * is awaitable and yields an OpResult value — no status out-params, no
 * completion callbacks:
 *
 *   OpResult r = co_await session.read(nid, offset, buf, len);
 *   if (!r.ok()) ...                        // CQ status, by value
 *
 * Asynchronous posts return a lightweight OpHandle that is itself
 * awaitable and carries its completion:
 *
 *   OpHandle h = co_await session.readAsync(nid, offset, buf, len);
 *   ... overlap compute ...
 *   OpResult r = co_await h;                // rendezvous with the CQ
 *
 * Mapping to the paper's Fig. 4 calls (see src/api/README.md):
 *
 *   read / write            ~ rmc_read_sync / rmc_write_sync
 *   readAsync / writeAsync  ~ rmc_read_async / rmc_write_async
 *                             (slot wait + WQ post fused; the handle is
 *                             the paper's wq index + completion state)
 *   drain                   ~ rmc_drain_cq
 *   fetchAdd / compareSwap  ~ the atomic operations of §5.2
 *
 * Multi-QP sessions (paper Table 2, IOPS vs queue pairs): a session
 * owns RmcParams::qpCount independent WQ/CQ pairs. Async posts are
 * distributed round-robin, or pinned with an explicit `qp` argument;
 * completions are demultiplexed back to the owning OpHandle regardless
 * of which queue pair carried the operation. Doorbell batching
 * (SessionParams::doorbellBatching) defers the per-post RMC doorbell:
 * posts accumulate per queue pair and the doorbell rings once per QP at
 * flush() — or automatically at the point the session would block
 * waiting for a completion — amortizing the RGP's WQ poll per the
 * paper's pipelined-CP discussion.
 *
 * All methods are coroutines executing "on" a Core: they charge API
 * instruction overhead on the core's compute resource and perform timed
 * loads/stores on the core's L1 for every WQ/CQ interaction, which is
 * exactly where soNUMA's coherence-integrated queue pairs earn their
 * latency advantage. Internally the session keeps the zero-allocation
 * machinery of the simulation core: completions land in fixed per-slot
 * records, wake-ups ride sim::Callback, and no std::function appears on
 * any per-operation path.
 */

#ifndef SONUMA_API_SESSION_HH
#define SONUMA_API_SESSION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "node/core.hh"
#include "os/rmc_driver.hh"
#include "rmc/queue_pair.hh"
#include "sim/log.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time_series.hh"

namespace sonuma::api {

class RmcSession;

/**
 * The completion of one remote operation, returned by value from every
 * awaitable op.
 */
struct OpResult
{
    rmc::CqStatus status = rmc::CqStatus::kOk;
    sim::Tick latency = 0;        //!< WQ post -> CQ completion observed
    sim::Tick completedAt = 0;    //!< tick the completion was reaped
    std::uint64_t oldValue = 0;   //!< atomics: memory value before the op

    bool ok() const { return status == rmc::CqStatus::kOk; }
};

/**
 * A pending asynchronous operation. Copyable and cheap (pointer + slot
 * + token); awaiting it yields the operation's OpResult. Discarding a
 * handle is legal (fire-and-forget): the WQ slot is still recycled when
 * its completion is reaped by a later session call.
 *
 * A handle's result stays readable until its WQ slot is reused, i.e.
 * for at least one full lap of its queue pair's ring — with round-robin
 * posting that is queueDepth() (total slots across all QPs) subsequent
 * posts. Awaiting a handle after that is a programming error and
 * aborts.
 */
class OpHandle
{
  public:
    OpHandle() = default;

    /** True if this handle refers to a posted operation. */
    bool valid() const { return session_ != nullptr; }

    /** True once the completion has been observed (non-blocking). */
    bool done() const;

    /**
     * The session-global slot this operation occupies (queue pair *
     * perQpDepth + ring index; e.g. to index per-slot buffers).
     */
    std::uint32_t slot() const { return slot_; }

    struct Awaiter; // defined below; owns the rendezvous coroutine

    /** `co_await handle` -> OpResult. */
    Awaiter operator co_await() const;

  private:
    friend class RmcSession;
    OpHandle(RmcSession *s, std::uint32_t slot, std::uint64_t token)
        : session_(s), slot_(slot), token_(token)
    {}

    RmcSession *session_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t token_ = 0;
};

/** Per-session queue-pair layout and doorbell policy. */
struct SessionParams
{
    /**
     * Queue pairs this session registers; 0 means "use the node's
     * RmcParams::qpCount". Software layers that only ever need one QP
     * (e.g. a Barrier) pin this to 1 regardless of the node default.
     */
    std::uint32_t qpCount = 0;

    /**
     * Defer the per-post RMC doorbell: posts accumulate per queue pair
     * and ring once at flush() or automatically when the session blocks
     * waiting for a completion (the paper's pipelined-CP amortization).
     */
    bool doorbellBatching = false;
};

/**
 * One application thread's handle on a set of queue pairs within a
 * global address space (context).
 *
 * Concurrency contract (matches the paper's one-QP-per-thread model,
 * §4.2, generalized to one *session* per thread): a session belongs to
 * ONE application coroutine. Its methods suspend internally, so two
 * coroutines interleaving posts on the same session would corrupt the
 * WQ rings — multi-QP fan-out happens *inside* the session, not by
 * sharing it. Software layers (Barrier, MsgEndpoint) may share their
 * caller's session only because the caller invokes them sequentially
 * from that one coroutine; coroutines that run concurrently need
 * sessions of their own (TestBed::newSession).
 */
class RmcSession
{
  public:
    /** "No preference" queue-pair argument: distribute round-robin. */
    static constexpr std::uint32_t kAnyQp = 0xffffffffu;

    /**
     * Open @p ctx for @p proc (driver permission check) and register
     * the session's queue pairs. @p core is the core this thread runs
     * on.
     */
    RmcSession(node::Core &core, os::RmcDriver &driver, os::Process &proc,
               sim::CtxId ctx, const SessionParams &params = {});

    RmcSession(const RmcSession &) = delete;
    RmcSession &operator=(const RmcSession &) = delete;

    //
    // Blocking operations: post, then rendezvous with the completion.
    //

    /** Remote read of @p len bytes into local @p buf. */
    [[nodiscard]] sim::ValueTask<OpResult> read(sim::NodeId nid,
                                                std::uint64_t offset,
                                                vm::VAddr buf,
                                                std::uint32_t len);

    /** Remote write of @p len bytes from local @p buf. */
    [[nodiscard]] sim::ValueTask<OpResult> write(sim::NodeId nid,
                                                 std::uint64_t offset,
                                                 vm::VAddr buf,
                                                 std::uint32_t len);

    /** Atomic fetch-and-add; the prior value is OpResult::oldValue. */
    [[nodiscard]] sim::ValueTask<OpResult> fetchAdd(sim::NodeId nid,
                                                    std::uint64_t offset,
                                                    std::uint64_t addend);

    /** Atomic compare-and-swap; the prior value is OpResult::oldValue. */
    [[nodiscard]] sim::ValueTask<OpResult>
    compareSwap(sim::NodeId nid, std::uint64_t offset,
                std::uint64_t expected, std::uint64_t desired);

    //
    // Asynchronous operations: wait for a free WQ slot (reaping
    // completions meanwhile), post, and return the slot's handle. The
    // trailing @p qp selects a queue pair explicitly (0..qpCount()-1);
    // kAnyQp distributes round-robin.
    //

    [[nodiscard]] sim::ValueTask<OpHandle>
    readAsync(sim::NodeId nid, std::uint64_t offset, vm::VAddr buf,
              std::uint32_t len, std::uint32_t qp = kAnyQp);

    [[nodiscard]] sim::ValueTask<OpHandle>
    writeAsync(sim::NodeId nid, std::uint64_t offset, vm::VAddr buf,
               std::uint32_t len, std::uint32_t qp = kAnyQp);

    [[nodiscard]] sim::ValueTask<OpHandle>
    fetchAddAsync(sim::NodeId nid, std::uint64_t offset,
                  std::uint64_t addend, std::uint32_t qp = kAnyQp);

    [[nodiscard]] sim::ValueTask<OpHandle>
    compareSwapAsync(sim::NodeId nid, std::uint64_t offset,
                     std::uint64_t expected, std::uint64_t desired,
                     std::uint32_t qp = kAnyQp);

    /** Reap available completions without blocking; yields the count. */
    [[nodiscard]] sim::ValueTask<std::uint32_t> poll();

    /** Block until every outstanding operation has completed. */
    [[nodiscard]] sim::Task drain();

    //
    // Teardown
    //

    /** What close() tears down beneath the session. */
    enum class CloseMode
    {
        kDestroyQps,        //!< destroy this session's queue pairs
        kUnregisterContext, //!< also drop the whole context on this node
    };

    /**
     * Tear the session down mid-flight. Batched doorbells are cancelled
     * (the fence completes those entries instead of ringing them), then
     * every queue pair is destroyed — each op in flight gets exactly
     * one CqStatus::kFlushed completion, which the owner still reaps
     * normally via drain()/handle awaits. kUnregisterContext
     * additionally removes the context from this node's RMC, so use it
     * only when no other session shares the context on this node.
     *
     * After close() the session stays usable as a stub: further posts
     * complete immediately with kFlushed (no WQ traffic), so drivers
     * that keep posting terminate cleanly instead of hanging. Plain
     * function (no simulated time) — callable from event context, e.g.
     * a scheduled teardown in a test.
     */
    void close(CloseMode mode = CloseMode::kDestroyQps);

    /** True once close() ran. */
    bool closed() const { return closed_; }

    //
    // Doorbell batching
    //

    /**
     * Ring the RMC for every queue pair with batched (unrung) posts.
     * Functional (no simulated time): the doorbell is the simulation's
     * stand-in for the RGP's next poll iteration discovering the
     * entries (see rmc.hh). No-op when batching is off or nothing is
     * pending.
     */
    void flush();

    /** Queue pairs with posts the RMC has not been told about yet. */
    std::uint32_t pendingDoorbells() const { return pendingDoorbells_; }

    bool doorbellBatching() const { return params_.doorbellBatching; }

    //
    // Introspection / helpers
    //

    std::uint32_t outstanding() const { return outstanding_; }

    /** Queue pairs this session posts across. */
    std::uint32_t qpCount() const
    {
        return static_cast<std::uint32_t>(qps_.size());
    }

    /** WQ/CQ ring depth of each individual queue pair. */
    std::uint32_t perQpDepth() const { return qpEntries_; }

    /**
     * Total in-flight capacity: perQpDepth() * qpCount(). This is also
     * the number of subsequent round-robin posts for which an
     * OpHandle's result is guaranteed to stay readable (one full lap).
     */
    std::uint32_t queueDepth() const { return qpEntries_ * qpCount(); }

    /**
     * The session-global slot the *next* async post will occupy (the
     * paper's wq_head, on the queue pair the round-robin — or @p qp —
     * would pick). Lets callers address per-slot landing buffers before
     * posting: `buf + session.nextSlot() * 64`.
     */
    std::uint32_t nextSlot(std::uint32_t qp = kAnyQp) const;

    node::Core &core() { return core_; }
    os::Process &process() { return proc_; }
    sim::NodeId nodeId() const { return nid_; }
    rmc::Rmc &rmc() { return driver_.rmc(); }
    sim::CtxId ctx() const { return ctx_; }

    /**
     * Reason behind the most recent fabric failure seen by this node's
     * RMC (which peer, node- vs link-scoped), for software deciding
     * whether a kFabricError op is worth retrying.
     */
    const fab::FailureInfo &lastFailure() { return rmc().lastFailure(); }

    /** Scratch buffer allocator in the session's process. */
    vm::VAddr
    allocBuffer(std::uint64_t bytes)
    {
        return proc_.alloc(bytes);
    }

  private:
    friend class OpHandle;

    node::Core &core_;
    os::RmcDriver &driver_;
    os::Process &proc_;
    sim::CtxId ctx_;
    SessionParams params_;
    sim::NodeId nid_;

    /** One registered queue pair plus its producer/consumer cursors. */
    struct QpState
    {
        os::QpHandle handle;
        rmc::RingCursor wq;  //!< producer side
        rmc::RingCursor cq;  //!< consumer side
        bool doorbellPending = false; //!< batched posts not yet rung

        QpState() : wq(1), cq(1) {}
    };
    std::vector<QpState> qps_;
    std::uint32_t qpEntries_ = 0;
    std::uint32_t rrNext_ = 0;            //!< next round-robin QP
    std::uint32_t pendingDoorbells_ = 0;

    std::uint32_t outstanding_ = 0;
    std::vector<bool> slotBusy_;          //!< by session-global slot
    bool closed_ = false;                 //!< see close()

    // Outstanding-op gauge, created in the constructor when sampling is
    // enabled ("node<i>.session<k>.outstanding").
    std::unique_ptr<sim::TimeSeries> outstandingProbe_;

    /** Completion rendezvous state, one fixed record per WQ slot. */
    struct SlotRecord
    {
        std::uint64_t token = 0;  //!< which post currently owns the slot
        bool completed = false;
        bool atomic = false;      //!< reap reads oldValue from bufVa
        rmc::CqStatus status = rmc::CqStatus::kOk;
        sim::Tick postedAt = 0;
        sim::Tick completedAt = 0;
        vm::VAddr bufVa = 0;
        std::uint64_t oldValue = 0;
    };
    std::vector<SlotRecord> records_;     //!< by session-global slot
    std::uint64_t nextToken_ = 0;

    sim::Condition completionEvent_;
    vm::VAddr atomicScratch_ = 0; //!< per-slot landing lines for atomics

    /** Flat index of entry @p idx on queue pair @p qp. */
    std::uint32_t
    gslot(std::uint32_t qp, std::uint32_t idx) const
    {
        return rmc::globalSlot(qp, idx, qpEntries_);
    }

    /** Reap everything currently visible in the CQs (all queue pairs). */
    sim::Task reapAvailable(std::uint32_t *reaped);

    /** Functional peek: does any CQ head hold an unreaped entry? */
    bool cqEntryVisible() const;

    /**
     * Empty-poll backoff: flush batched doorbells, charge the poll
     * overhead, then block on the completion event — unless a
     * completion landed during the charge (lost-wakeup guard).
     */
    sim::Task pollWait();

    /**
     * Pick a queue pair (honoring @p qpHint) and spin (reaping) until
     * its WQ head slot frees; returns the QP and its head index.
     */
    sim::Task acquireSlot(std::uint32_t qpHint, std::uint32_t *qp,
                          std::uint32_t *slot);

    /** Acquire a slot, write + ring one WQ entry, hand out the handle. */
    sim::ValueTask<OpHandle> postOp(rmc::WqEntry entry, bool atomic,
                                    std::uint32_t qpHint);

    /** Rendezvous coroutine behind `co_await handle`. */
    sim::ValueTask<OpResult> awaitCompletion(std::uint32_t slot,
                                             std::uint64_t token);

    /** Non-blocking completion check for OpHandle::done(). */
    bool completionVisible(std::uint32_t slot, std::uint64_t token) const;

    /** Landing line for the old value of an atomic using global slot. */
    vm::VAddr scratchFor(std::uint32_t slot);
};

//
// OpHandle inline implementation (needs RmcSession above).
//

/**
 * Awaiter returned by `co_await handle`. Owns the rendezvous coroutine
 * for the duration of the await (the enclosing coroutine frame keeps
 * the awaiter alive across suspension).
 */
struct OpHandle::Awaiter
{
    sim::ValueTask<OpResult> task;
    sim::ValueTask<OpResult>::JoinAwaiter join;

    explicit Awaiter(sim::ValueTask<OpResult> t)
        : task(std::move(t)), join(task.operator co_await())
    {}

    bool await_ready() const noexcept { return join.await_ready(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> parent) noexcept
    {
        return join.await_suspend(parent);
    }

    OpResult await_resume() const { return join.await_resume(); }
};

inline OpHandle::Awaiter
OpHandle::operator co_await() const
{
    if (!session_)
        sim::fatal("co_await on a default-constructed (invalid) OpHandle");
    return Awaiter(session_->awaitCompletion(slot_, token_));
}

inline bool
OpHandle::done() const
{
    return session_ && session_->completionVisible(slot_, token_);
}

} // namespace sonuma::api

#endif // SONUMA_API_SESSION_HH
