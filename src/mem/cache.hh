/**
 * @file
 * Node-local coherent cache hierarchy (timing model).
 *
 * Per node: any number of private L1 caches (one per core, plus one for
 * the RMC — the paper's key integration point) backed by a shared,
 * inclusive L2 with a full-map directory. MESI-reduced MSI states per L1
 * line; coherence transactions serialize per line at the L2, which keeps
 * the protocol race-free while preserving the latency behaviour that
 * matters (cache-to-cache transfers for queue-pair polling).
 *
 * Functional data lives in PhysMem (the functional/timing split is
 * explained in mem/phys_mem.hh); these classes model timing only.
 */

#ifndef SONUMA_MEM_CACHE_HH
#define SONUMA_MEM_CACHE_HH

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mem/dram.hh"
#include "sim/callback.hh"
#include "sim/slot_pool.hh"
#include "mem/phys_mem.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sonuma::mem {

class L2Cache;

/** Cache geometry/timing configuration. */
struct CacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t latencyCycles = 3;  //!< tag+data access
    std::uint32_t mshrs = 32;
    double freqGhz = 2.0;

    sim::Tick
    latency() const
    {
        return sim::Clock(freqGhz).cycles(latencyCycles);
    }
};

/**
 * Line-to-set mapping shared by both cache levels: a mask when the set
 * count is a power of two, a modulo otherwise (SHM PageRank sizes its
 * L2 at 4 MiB x threads, so e.g. 3 threads give 12288 sets).
 * node::validate guarantees at least one whole set.
 */
class SetIndex
{
  public:
    SetIndex(std::uint64_t sizeBytes, std::uint32_t assoc)
        : count_(static_cast<std::uint32_t>(
              sizeBytes / sim::kCacheLineBytes / assoc)),
          pow2_((count_ & (count_ - 1)) == 0)
    {
        assert(count_ > 0 && "cache smaller than one set");
    }

    std::uint32_t count() const { return count_; }

    std::uint32_t
    operator()(PAddr line) const
    {
        const PAddr n = line / sim::kCacheLineBytes;
        return static_cast<std::uint32_t>(pow2_ ? n & (count_ - 1)
                                                : n % count_);
    }

  private:
    std::uint32_t count_;
    bool pow2_;
};

/**
 * A private L1 cache (write-back, write-allocate) attached to an L2.
 *
 * All accesses are at cache-line granularity; callers align/split.
 * Completion is via callback after the full coherence transaction.
 */
class L1Cache
{
  public:
    L1Cache(sim::EventQueue &eq, sim::StatRegistry &stats, std::string name,
            const CacheParams &params, L2Cache &l2);

    L1Cache(const L1Cache &) = delete;
    L1Cache &operator=(const L1Cache &) = delete;

    /**
     * Timed access to the line containing @p addr.
     *
     * @param write true to acquire write (M) permission
     * @param done fires when the access commits
     */
    void access(PAddr addr, bool write, sim::Callback done);

    /**
     * Timed full-line store (the RMC's cache-line-wide interface,
     * paper §4.3). Like a write access, but an L2 miss allocates the
     * line without fetching stale data from DRAM since every byte is
     * overwritten ("write-validate").
     */
    void accessFullLineWrite(PAddr addr, sim::Callback done);

    /** Number of in-flight MSHRs (for tests). */
    std::size_t inflight() const { return mshrsInUse_; }

    enum class State : std::uint8_t { kInvalid, kShared, kModified };

    /**
     * One way of a set, 16 bytes: the line address with its State
     * packed into the low 6 bits (a line address's offset bits, always
     * zero), and the LRU stamp. A 2-way set is then 32 B, inside one
     * host line.
     */
    class LineInfo
    {
      public:
        PAddr tag() const { return bits_ & ~kStateMask; }
        State state() const { return static_cast<State>(bits_ & kStateMask); }
        bool valid() const { return state() != State::kInvalid; }
        bool holds(PAddr line) const { return valid() && tag() == line; }

        void
        set(PAddr line, State s)
        {
            assert((line & kStateMask) == 0 && "tag must be line-aligned");
            bits_ = line | static_cast<PAddr>(s);
        }
        void setState(State s) { set(tag(), s); }

        sim::Tick lastUse = 0;

      private:
        static constexpr PAddr kStateMask = sim::kCacheLineBytes - 1;
        PAddr bits_ = 0;
    };

    /** Coherence state of the line holding @p addr (for tests). */
    State stateOf(PAddr addr) const;

    const std::string &name() const { return name_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    friend class L2Cache;

    static constexpr std::uint32_t kNoWaiter = ~std::uint32_t(0);

    /**
     * An access merged into an MSHR, linked FIFO through `next`. All
     * MSHRs of one L1 share one pool, sized for the accesses in flight
     * rather than for every MSHR's worst case.
     */
    struct Waiter
    {
        bool write = false;
        sim::Callback done;
        std::uint32_t next = kNoWaiter;
    };

    /**
     * Miss-status holding register. Fixed slots (params.mshrs of them,
     * linear-scanned — the hardware's CAM): an unordered_map here would
     * allocate a node per miss, and queue-pair polling makes misses the
     * steady state. Busy MSHRs are packed in mshrs_[0, mshrsInUse_), so
     * a lookup scans only the misses in flight; a new miss takes
     * mshrs_[mshrsInUse_] and a fill swaps the last busy MSHR into the
     * slot it frees. MSHRs are found by line, never by index, so the
     * move is unobservable. Its waiters are a head/tail list in
     * waiters_.
     */
    struct Mshr
    {
        PAddr line = 0;
        bool write = false;               //!< permission being requested
        std::uint32_t head = kNoWaiter;
        std::uint32_t tail = kNoWaiter;
    };

    void accessImpl(PAddr addr, bool write, bool fullLine,
                    sim::Callback done);

    /**
     * A timed access parked while its L1 latency elapses (or while all
     * MSHRs are busy). Slot-table storage keeps the scheduled event's
     * capture at {this, slot} so it stays inline in sim::Callback.
     */
    struct PendingAccess
    {
        PAddr addr = 0;
        bool write = false;
        bool fullLine = false;
        sim::Callback done;
    };

    void fireAccess(std::uint32_t slot);

    sim::EventQueue &eq_;
    std::string name_;
    CacheParams params_;
    sim::Tick latency_; //!< params_.latency(), computed once
    L2Cache &l2_;
    int l1Id_ = -1;

    SetIndex sets_;
    // Flat tag array, [set * assoc + way] from set0_. ways_ is
    // over-allocated by one host line so set0_ can start on a 64-byte
    // boundary; no set then straddles two host lines.
    std::vector<LineInfo> ways_;
    LineInfo *set0_;
    std::vector<Mshr> mshrs_;    //!< fixed slots (CAM), busy ones packed
    std::size_t mshrsInUse_ = 0;
    sim::SlotPool<Waiter> waiters_; //!< every MSHR's merged accesses
    sim::SlotPool<PendingAccess> accessSlots_;
    sim::RingBuffer<PendingAccess> blocked_; //!< retry when an MSHR frees
    // PutMs in flight to the L2. A handful at most: linear vector, no
    // per-insert heap node.
    std::vector<PAddr> pendingPutbacks_;

    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter writebacks_;
    sim::Counter probes_;
    sim::Counter upgrades_;

    static PAddr lineOf(PAddr addr) { return addr & ~PAddr(63); }
    std::span<LineInfo> waysOf(PAddr line) const;
    LineInfo *findLine(PAddr line);
    LineInfo *allocLine(PAddr line); //!< may trigger victim writeback

    Mshr *findMshr(PAddr line);
    bool pendingPutback(PAddr line) const;
    void erasePendingPutback(PAddr line);

    void addWaiter(Mshr &mshr, bool write, sim::Callback done);
    void startMiss(PAddr line, bool write, bool fullLine,
                   sim::Callback done);
    void handleFill(PAddr line, bool grantedWrite);
    void retryBlocked();

    /**
     * Coherence probe from the directory. Invalidate or downgrade; returns
     * true (via callback semantics at L2) once the probe took effect.
     * @param invalidate true for invalidation, false for downgrade to S
     * @retval true if this L1 had the line in M (data forwarded)
     */
    bool handleProbe(PAddr line, bool invalidate);
};

/**
 * Shared, inclusive L2 with a full-map directory over the attached L1s,
 * backed by a DRAM channel. Transactions serialize per line.
 */
class L2Cache
{
  public:
    struct Params
    {
        std::uint64_t sizeBytes = 4ull * 1024 * 1024;
        std::uint32_t assoc = 16;
        std::uint32_t latencyCycles = 6;
        std::uint32_t probeLatencyCycles = 4; //!< L2 <-> L1 probe hop
        double freqGhz = 2.0;

        sim::Tick
        latency() const
        {
            return sim::Clock(freqGhz).cycles(latencyCycles);
        }

        sim::Tick
        probeLatency() const
        {
            return sim::Clock(freqGhz).cycles(probeLatencyCycles);
        }
    };

    L2Cache(sim::EventQueue &eq, sim::StatRegistry &stats, std::string name,
            const Params &params, DramChannel &dram);

    L2Cache(const L2Cache &) = delete;
    L2Cache &operator=(const L2Cache &) = delete;

    /** Attach an L1; returns its directory id. */
    int registerL1(L1Cache *l1);

    /**
     * L1-initiated request for a line.
     * @param requester directory id of the requesting L1
     * @param write true for GetM (exclusive), false for GetS
     * @param fullLine the requester overwrites the whole line, so an L2
     *        miss may allocate without a DRAM fetch
     * @param done fires when permission is granted
     */
    void request(int requester, PAddr line, bool write, bool fullLine,
                 sim::Callback done);

    /** L1 write-back of a modified line (PutM). */
    void putback(int requester, PAddr line);

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t cacheToCacheTransfers() const { return c2c_.value(); }

    const Params &params() const { return params_; }

  private:
    struct DirEntry
    {
        sim::Tick lastUse = 0;
        std::uint32_t sharers = 0; //!< bitmask over L1 ids
        std::int8_t owner = -1;    //!< L1 id holding M, or -1
        bool dirtyInL2 = false;
    };
    static_assert(sizeof(DirEntry) == 16);

    struct PendingReq
    {
        int requester;
        bool write;
        bool fullLine = false;
        bool isPutback = false;
        sim::Callback done;
    };

    sim::EventQueue &eq_;
    std::string name_;
    Params params_;
    sim::Tick latency_;      //!< params_.latency(), computed once
    sim::Tick probeLatency_; //!< params_.probeLatency(), computed once
    DramChannel &dram_;
    std::vector<L1Cache *> l1s_;

    SetIndex sets_;
    // Inclusive tag+directory state per set, in install order (the LRU
    // scan's tie order); parallel arrays, so a hit scans only tags.
    // Reserved at assoc, so hits, misses and evictions never allocate;
    // only concurrent misses over-fill a set past it (ROADMAP item 9).
    struct SetLines
    {
        std::vector<PAddr> tags;
        std::vector<DirEntry> dirs;
    };
    std::vector<SetLines> setLines_;

    /**
     * Per-line transaction serialization. Concurrently locked lines are
     * bounded by in-flight transactions (MSHRs x L1s), so a compact
     * linear-scanned table replaces a node-based set+map pair, whose
     * node churn would allocate on every transaction. Held entries are
     * packed in locks_[0, lockedCount_), so a lookup scans only the
     * locks actually held (typically a handful); a release swaps the
     * last held entry into the freed slot. Each waiting ring keeps its
     * capacity as entries move.
     */
    struct LockEntry
    {
        PAddr line = 0;
        sim::RingBuffer<PendingReq> waiting{2};
    };
    std::vector<LockEntry> locks_;
    std::size_t lockedCount_ = 0;

    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter c2c_;
    sim::Counter evictions_;
    sim::Counter dramRetries_;

    /**
     * A transaction holding its line's lock. It is parked once, when it
     * takes the lock (lockLine, or the unlockLine hand-off), and stays
     * in its slot through the tag latency, the miss path and the probe
     * latency until fireCompletion (or process, for a putback) takes
     * it. As in the L1, slot storage keeps event captures at
     * {this, slot}: the PendingReq holds a Callback, which is move-only
     * and so cannot be captured by another sim::Callback.
     */
    struct ParkedReq
    {
        PAddr line = 0;
        PendingReq req;
    };

    sim::SlotPool<ParkedReq> reqSlots_;

    LockEntry *findLock(PAddr line);
    void lockLine(PAddr line, PendingReq req);
    void unlockLine(PAddr line);
    void startTransaction(PAddr line, PendingReq req);
    void process(std::uint32_t slot);
    void fireCompletion(std::uint32_t slot);
    /** @param dir the line's entry, as process or installLine found it */
    void finishRequest(std::uint32_t slot, DirEntry &dir);

    //
    // L2 miss path: only {this, line, slot} travels through the
    // continuations.
    //
    void ensureCapacity(PAddr line, std::uint32_t slot);
    void fillMissingLine(PAddr line, std::uint32_t slot);
    void fetchFromDram(PAddr line, std::uint32_t slot);
    void installLine(PAddr line, std::uint32_t slot);

    void writebackToDram(PAddr line);
};

} // namespace sonuma::mem

#endif // SONUMA_MEM_CACHE_HH
