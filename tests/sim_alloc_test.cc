/**
 * @file
 * Allocation-counting test hook: verifies the zero-allocation guarantee
 * of the simulation core. This binary overrides global operator
 * new/delete to count heap allocations (and bytes), warms each
 * subsystem up, and then asserts that the steady-state event loop,
 * coroutine spawn cycle, fabric message path, cache hit and miss paths
 * (MSHR compaction, L2 transactions), MAQ store-to-load forwarding and
 * the RRPP dedup window perform zero allocations per event. It also bounds the
 * heap a node takes to build, checks that the pipeline steps whose
 * common path does not suspend take no coroutine frame on it, pins
 * the frames of one warm remote read, and checks that a slot pool's
 * release and a sweep's in-flight read window do not allocate.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "api/testbed.hh"
#include "app/sweep.hh"
#include "fabric/crossbar.hh"
#include "fabric/fabric.hh"
#include "fabric/torus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "rmc/dedup_window.hh"
#include "rmc/maq.hh"
#include "rmc/rmc.hh"
#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

static std::uint64_t g_allocCount = 0;
static std::uint64_t g_allocBytes = 0;

// GCC pairs the replaced operator new with the default operator delete
// and flags the std::free below as mismatched; the override is
// malloc-backed end to end, so the pairing is in fact correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    ++g_allocCount;
    g_allocBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace sonuma::rmc {

/** Reaches the RMC's private pipeline steps (Rmc befriends it). */
class RmcTestPeer
{
  public:
    static PageWalker &walker(Rmc &r) { return r.walker_; }

    static Rmc::Charge
    charge(Rmc &r, sim::Tick hwCost)
    {
        return r.charge(r.emuFrontend_.get(), hwCost, 0);
    }

    static sim::Step allocTid(Rmc &r, std::uint32_t *out)
    {
        return r.allocTid(out);
    }

    static void freeTid(Rmc &r, std::uint32_t tid) { r.freeTid(tid); }

    static sim::Step
    sendMessage(Rmc &r, const fab::Message &msg)
    {
        return r.sendMessage(msg);
    }
};

} // namespace sonuma::rmc

namespace {

using namespace sonuma;

TEST(AllocCounting, HookCountsAllocations)
{
    const std::uint64_t before = g_allocCount;
    // Call the replaceable allocation function directly: a plain
    // `new int` can legally be elided by the optimizer.
    void *p = ::operator new(8);
    EXPECT_GT(g_allocCount, before);
    ::operator delete(p);
}

TEST(AllocCounting, SteadyStateEventLoopIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);

    struct Chain
    {
        sim::EventQueue &eq;
        std::uint64_t fired = 0;
        std::uint64_t target = 0;

        // Scheduled with a touch hint, the form every hot site uses.
        void
        arm()
        {
            eq.scheduleAfter(
                1,
                [this] {
                    ++fired;
                    if (fired < target)
                        arm();
                },
                this);
        }
    } chain{eq};

    // Warm-up: grow heap storage, slot table, freelists.
    chain.target = 256;
    for (int i = 0; i < 16; ++i)
        chain.arm();
    eq.run();

    chain.fired = 0;
    chain.target = 10'000;
    for (int i = 0; i < 16; ++i)
        chain.arm();
    const std::uint64_t a0 = g_allocCount;
    eq.run();
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "steady-state schedule/fire must not allocate";
    EXPECT_GE(chain.fired, 10'000u);
}

TEST(AllocCounting, ScheduleCancelCycleIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);

    // Warm-up, including tombstone churn.
    for (int i = 0; i < 64; ++i) {
        auto id = eq.scheduleAfter(5, [] {});
        eq.cancel(id);
    }
    eq.run();

    const std::uint64_t a0 = g_allocCount;
    for (int i = 0; i < 10'000; ++i) {
        auto id = eq.scheduleAfter(5, [] {});
        eq.cancel(id);
        eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "cancel must recycle slots without allocating";
}

sim::FireAndForget
transaction(sim::EventQueue &eq, std::uint64_t *done)
{
    co_await sim::Delay(eq, 1);
    co_await sim::Delay(eq, 1);
    ++*done;
}

TEST(AllocCounting, SteadyStateCoroutineChurnIsAllocationFree)
{
    sim::EventQueue eq;
    eq.reserve(64);
    std::uint64_t done = 0;

    // Warm-up: pool a batch of frames.
    for (int i = 0; i < 32; ++i)
        transaction(eq, &done);
    eq.run();

    const std::uint64_t a0 = g_allocCount;
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 32; ++i)
            transaction(eq, &done);
        eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "warmed coroutine spawn/complete cycles must not allocate";
    EXPECT_EQ(done, 32u * 101);
}

/** One L2 with @p l1Count L1s on one DRAM channel. */
struct Hierarchy
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    mem::DramChannel dram{eq, stats, "dram"};
    mem::L2Cache l2;
    std::vector<std::unique_ptr<mem::L1Cache>> l1s;

    Hierarchy(int l1Count, const mem::L2Cache::Params &l2Params = {})
        : l2(eq, stats, "l2", l2Params, dram)
    {
        for (int i = 0; i < l1Count; ++i)
            l1s.push_back(std::make_unique<mem::L1Cache>(
                eq, stats, "l1_" + std::to_string(i), mem::CacheParams{},
                l2));
    }
};

TEST(AllocCounting, SteadyStateL1HitPathIsAllocationFree)
{
    Hierarchy h(1);
    mem::L1Cache &l1 = *h.l1s[0];
    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // Warm-up: fill the line (miss path touches MSHR/directory maps)
    // and let the access slot table reach steady size.
    for (int i = 0; i < 4; ++i) {
        l1.access(0x1000, false, bump);
        h.eq.run();
    }

    const std::uint64_t a0 = g_allocCount;
    for (int i = 0; i < 5'000; ++i) {
        l1.access(0x1000, false, bump);
        h.eq.run();
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "L1 hits must ride the slot table, not heap closures";
    EXPECT_EQ(done, 5'004u);
}

TEST(AllocCounting, DedupWindowFifoChurnIsAllocationFree)
{
    // The RRPP pattern: a default 1024-record window, then 1 M records
    // of fresh triples past it, each one evicting the oldest.
    const std::uint64_t a0 = g_allocCount;
    rmc::DedupWindow none(0);
    EXPECT_EQ(g_allocCount - a0, 0u) << "a zero window must not allocate";

    constexpr std::uint32_t kWindow = 1'024;
    rmc::DedupWindow w(kWindow);
    auto record = [&w](std::uint64_t r) {
        w.record(1, std::uint32_t(r), r * 64, fab::Op::kWriteReply, r);
    };
    std::uint64_t r = 0;
    for (; r < kWindow; ++r)
        record(r);

    const std::uint64_t a1 = g_allocCount;
    for (; r < kWindow + (1u << 20); ++r)
        record(r);
    EXPECT_EQ(g_allocCount - a1, 0u)
        << "FIFO eviction must not touch the allocator";
    EXPECT_EQ(w.size(), kWindow);
    const std::uint64_t gone = r - kWindow - 1;
    EXPECT_EQ(w.find(1, std::uint32_t(gone), gone * 64), nullptr);
    for (std::uint64_t k = r - kWindow; k < r; ++k)
        ASSERT_NE(w.find(1, std::uint32_t(k), k * 64), nullptr) << k;
}

/**
 * Run @p round for warm-up rounds and then for measured rounds; expect
 * the measured ones to allocate nothing.
 */
template <typename Round>
void
expectAllocationFreeRounds(const char *what, int warmRounds,
                           int measuredRounds, Round round)
{
    int r = 0;
    for (; r < warmRounds; ++r)
        round(r);
    const std::uint64_t a0 = g_allocCount;
    for (; r < warmRounds + measuredRounds; ++r)
        round(r);
    EXPECT_EQ(g_allocCount - a0, 0u) << what;
}

TEST(AllocCounting, MergedMissesUseThePooledWaiters)
{
    Hierarchy h(1);
    mem::L1Cache &l1 = *h.l1s[0];
    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // Four reads and two writes meet one missing line in the same tick:
    // the first allocates the MSHR, the rest merge into its waiter list
    // and the writes retry as an upgrade after the read fill.
    auto round = [&](int r) {
        const mem::PAddr line = 0x100000 + mem::PAddr(r) * 64;
        for (int i = 0; i < 6; ++i)
            l1.access(line, i >= 4, bump);
        h.eq.run();
    };
    expectAllocationFreeRounds("merged misses must reuse pooled waiters",
                               1'024, 4'000, round);
    EXPECT_EQ(done, 6u * 5'024);
}

TEST(AllocCounting, L2LockHandOffIsAllocationFree)
{
    Hierarchy h(2);
    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // Both L1s write the same line at once: the second GetM queues on
    // the L2's line lock and takes it over when the first completes.
    auto round = [&](int r) {
        const mem::PAddr line = 0x200000 + mem::PAddr(r % 512) * 64;
        h.l1s[0]->access(line, true, bump);
        h.l1s[1]->access(line, true, bump);
        h.eq.run();
    };
    expectAllocationFreeRounds("lock hand-off must not allocate", 1'024,
                               4'000, round);
    EXPECT_EQ(done, 2u * 5'024);
}

TEST(AllocCounting, L2EvictionsInAFullSetAreAllocationFree)
{
    mem::L2Cache::Params small;
    small.sizeBytes = 64 * 1024; // 64 sets of 16 ways
    Hierarchy h(1, small);
    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // Every write maps to set 0 of the L2, so once its 16 ways fill
    // each miss evicts a dirty victim: a directory erase, a DRAM
    // writeback and an install, on an ever-new line address.
    const mem::PAddr setStride = 64 * 64;
    auto round = [&](int r) {
        h.l1s[0]->access(mem::PAddr(r) * setStride, true, bump);
        h.eq.run();
    };
    expectAllocationFreeRounds("full-set evictions must not allocate", 64,
                               8'000, round);
    EXPECT_EQ(done, 8'064u);
    EXPECT_GE(h.stats.counter("l2.evictions")->value(), 8'000u);
}

TEST(AllocCounting, L2HitAndMissTransactionsAreAllocationFree)
{
    Hierarchy h(2);
    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // A write miss fetches a fresh line from DRAM into L1 1; a read
    // from L1 0 then hits the L2 and downgrades the owner by probe, and
    // its write hits again and invalidates L1 1's copy. Each request
    // stays in one parked slot from its lock to its completion.
    auto round = [&](int r) {
        const mem::PAddr line = 0x300000 + mem::PAddr(r) * 64;
        h.l1s[1]->access(line, true, bump);
        h.eq.run();
        h.l1s[0]->access(line, false, bump);
        h.eq.run();
        h.l1s[0]->access(line, true, bump);
        h.eq.run();
    };
    expectAllocationFreeRounds("L2 hit and miss transactions must not "
                               "allocate",
                               1'024, 4'000, round);
    EXPECT_EQ(done, 3u * 5'024);
    EXPECT_EQ(h.l2.hits(), 2u * 5'024);
    EXPECT_EQ(h.l2.cacheToCacheTransfers(), 5'024u);
}

TEST(AllocCounting, MshrReleaseWithCompactionIsAllocationFree)
{
    Hierarchy h(2);
    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // L1 0 misses on three fresh lines in one tick: DRAM, L2 (warmed
    // by L1 1), DRAM. The L2 hit fills first and frees the middle
    // MSHR, and the last busy one moves into its slot.
    auto round = [&](int r) {
        const mem::PAddr base = 0x800000 + mem::PAddr(r) * 3 * 64;
        h.l1s[1]->access(base + 64, false, bump);
        h.eq.run();
        for (mem::PAddr i = 0; i < 3; ++i)
            h.l1s[0]->access(base + i * 64, false, bump);
        h.eq.run();
    };
    expectAllocationFreeRounds("MSHR release with compaction must not "
                               "allocate",
                               1'024, 4'000, round);
    EXPECT_EQ(done, 4u * 5'024);
    EXPECT_EQ(h.l1s[0]->inflight(), 0u);
}

TEST(AllocCounting, MaqStoreToLoadForwardingIsAllocationFree)
{
    Hierarchy h(1);
    rmc::Maq maq(h.eq, h.stats, "maq", *h.l1s[0], 32);
    std::uint64_t done = 0;
    auto bump = [&done] { ++done; };

    // Two stores to one fresh line, then three loads that forward from
    // the store in the lower slot: the store list and each slot's
    // forwarded loads keep their capacity across rounds.
    auto round = [&](int r) {
        const mem::PAddr line = 0xc00000 + mem::PAddr(r) * 64;
        maq.submit(line, true, false, bump);
        maq.submit(line, true, false, bump);
        for (mem::PAddr i = 0; i < 3; ++i)
            maq.submit(line + 8 * i, false, false, bump);
        h.eq.run();
    };
    expectAllocationFreeRounds("MAQ store-to-load forwarding must not "
                               "allocate",
                               1'024, 4'000, round);
    EXPECT_EQ(done, 5u * 5'024);
    EXPECT_EQ(maq.forwardCount(), 3u * 5'024);
}

TEST(AllocCounting, RrppDedupWindowChurnIsAllocationFree)
{
    api::TestBed bed(api::ClusterSpec{}.nodes(2)); // 1 MiB segments
    auto &s = bed.session(1);
    const vm::VAddr buf = s.allocBuffer(64);
    // 2048 distinct line offsets: each write records a fresh key in
    // node 0's dedup window, and every record past dedupWindow (1024)
    // evicts the oldest key, the churn the index must absorb.
    constexpr int kLines = 2'048;
    constexpr int kMeasured = 8'192;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    int ok = 0;
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < kLines + kMeasured; ++i) {
            if (i == kLines)
                a0 = g_allocCount;
            const api::OpResult r =
                co_await s.write(0, std::uint64_t(i % kLines) * 64, buf, 64);
            ok += r.ok();
        }
        a1 = g_allocCount;
    };
    bed.spawn(client());
    bed.run();
    EXPECT_EQ(ok, kLines + kMeasured);
    EXPECT_GT(kMeasured, int(rmc::RmcParams{}.dedupWindow));
    EXPECT_EQ(a1 - a0, 0u)
        << "RRPP writes past the dedup window must not allocate";
}

TEST(AllocCounting, SlotPoolReleaseNeverAllocates)
{
    // Grown by acquire() alone, with no reserve(): releasing every slot
    // at once still fits the free list.
    constexpr std::uint32_t kSlots = 1'000;
    sim::SlotPool<std::uint64_t> pool;
    for (std::uint32_t i = 0; i < kSlots; ++i)
        ASSERT_EQ(pool.acquire(), i);
    const std::uint64_t a0 = g_allocCount;
    for (std::uint32_t i = 0; i < kSlots; ++i)
        pool.release(i);
    EXPECT_EQ(g_allocCount - a0, 0u);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(AllocCounting, SweepReadWindowDoesNotAllocatePerOp)
{
    // Two-node uniform-read sweep cells, 8 reads in flight per node,
    // that differ only in ops per node: every per-cell structure
    // reaches its peak in the shorter run, so the longer one may
    // allocate no more. A std::deque window allocated a 512-byte node
    // about every 27 reads. The longer cell runs once first, to grow
    // the process-wide frame pool to its (deterministic) peak.
    const auto cellAllocs = [](std::uint32_t opsPerNode) {
        app::SweepConfig cfg;
        cfg.opsPerNode = opsPerNode;
        cfg.echo = false;
        app::SweepDriver driver(cfg);
        const std::uint64_t a0 = g_allocCount;
        const app::SweepCellResult cell =
            driver.runCell(2, node::Topology::kCrossbar, 64, 8);
        const std::uint64_t allocs = g_allocCount - a0;
        EXPECT_EQ(cell.okOps, 2ull * opsPerNode);
        return allocs;
    };
    cellAllocs(4'096);
    const std::uint64_t shorter = cellAllocs(512);
    const std::uint64_t longer = cellAllocs(4'096);
    EXPECT_LE(longer, shorter);
}

/** Coroutine frames allocated so far (all sizes, pooled or not). */
std::uint64_t
framesAllocated()
{
    return sim::FramePool::instance().stats().allocs;
}

TEST(AllocCounting, NonSuspendingStepsTakeNoFrame)
{
    api::TestBed bed(api::ClusterSpec{}.nodes(2));
    auto &s = bed.session(1);
    rmc::Rmc &r = s.rmc();
    ASSERT_FALSE(r.params().emulation());
    const vm::VAddr buf = s.allocBuffer(64);
    const mem::PAddr root = s.process().addressSpace().pageTable().root();

    struct Frames
    {
        std::uint64_t tlbHit = ~0ull, chargeZero = ~0ull,
                      chargeCycles = ~0ull, allocTid = ~0ull,
                      send = ~0ull, post = ~0ull;
    } f;
    std::uint64_t walks = 0;
    std::optional<mem::PAddr> pa;
    auto client = [&]() -> sim::Task {
        // Warm-up: TLB, CT$, caches and the frame pool's freelists.
        for (int i = 0; i < 64; ++i)
            co_await s.read(0, std::uint64_t(i) * 64, buf, 64);

        // The RCP translated buf for every reply: a TLB hit now.
        walks = rmc::RmcTestPeer::walker(r).walkCount();
        std::uint64_t a0 = framesAllocated();
        co_await rmc::RmcTestPeer::walker(r).translate(s.ctx(), buf, root,
                                                       &pa);
        f.tlbHit = framesAllocated() - a0;
        walks = rmc::RmcTestPeer::walker(r).walkCount() - walks;

        a0 = framesAllocated();
        co_await rmc::RmcTestPeer::charge(r, 0);
        f.chargeZero = framesAllocated() - a0;
        a0 = framesAllocated();
        co_await rmc::RmcTestPeer::charge(r, r.params().cycles(10));
        f.chargeCycles = framesAllocated() - a0;

        std::uint32_t tid = 0;
        a0 = framesAllocated();
        co_await rmc::RmcTestPeer::allocTid(r, &tid);
        f.allocTid = framesAllocated() - a0;
        rmc::RmcTestPeer::freeTid(r, tid);

        // Every slot is free: the post takes only its own two frames
        // (readAsync and postOp), none to wait for a slot.
        a0 = framesAllocated();
        api::OpHandle h = co_await s.readAsync(0, 0, buf, 64);
        f.post = framesAllocated() - a0;
        EXPECT_TRUE((co_await h).ok());

        // Sent last, so the RMC work it causes runs after every
        // measured span. A read request for a tid the ITT never issued:
        // node 0 serves it and node 1's RCP drops the reply as stale.
        fab::Message msg;
        msg.op = fab::Op::kReadReq;
        msg.srcNid = 1;
        msg.dstNid = 0;
        msg.ctxId = s.ctx();
        msg.tid = 0xffff;
        a0 = framesAllocated();
        co_await rmc::RmcTestPeer::sendMessage(r, msg);
        f.send = framesAllocated() - a0;
    };
    bed.spawn(client());
    bed.run();
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, s.process().addressSpace().translate(buf));
    EXPECT_EQ(walks, 0u) << "the translate must be a TLB hit";
    EXPECT_EQ(f.tlbHit, 0u) << "TLB-hit translate";
    EXPECT_EQ(f.chargeZero, 0u) << "hardware charge of 0 cycles";
    EXPECT_EQ(f.chargeCycles, 0u) << "hardware charge of 10 cycles";
    EXPECT_EQ(f.allocTid, 0u) << "allocTid with a free tid";
    EXPECT_EQ(f.send, 0u) << "sendMessage with NI space";
    EXPECT_EQ(f.post, 2u) << "post into a free WQ slot";
}

TEST(AllocCounting, WarmRemoteReadFrameCountIsPinned)
{
    // Every coroutine frame one warm 64 B remote read takes on both
    // nodes, api to RMC and back. Pinned exactly, so a frame added to
    // the op path shows up here as a diff.
    constexpr std::uint64_t kFramesPerWarmRead = 14;
    api::TestBed bed(api::ClusterSpec{}.nodes(2));
    auto &s = bed.session(1);
    const vm::VAddr buf = s.allocBuffer(64);
    std::uint64_t frames = 0;
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < 64; ++i)
            co_await s.read(0, 64, buf, 64);
        const std::uint64_t a0 = framesAllocated();
        const api::OpResult res = co_await s.read(0, 64, buf, 64);
        frames = framesAllocated() - a0;
        EXPECT_TRUE(res.ok());
    };
    bed.spawn(client());
    bed.run();
    EXPECT_EQ(frames, kFramesPerWarmRead);
}

TEST(AllocCounting, NodeConstructionHeapIsBounded)
{
    // The perfbench stream64 bed: 64 nodes on a 4x4x4 torus, 256 KiB
    // L2, 64-entry queue pairs. Heap bytes requested per node while it
    // is built (cumulative, temporaries included), measured with this
    // counter: 4 159 497 with 1 MiB heap chunks of physical memory and
    // 64 reserved waiters per MSHR; 687 977 with demand-zero mapped
    // chunks and one waiter pool per L1; 1 084 829 with mapped chunks
    // but 64 waiters reserved per MSHR again; 664 719 with the L2
    // directory in a flat hash map presized to 2x the line count;
    // 380 366 with the directory in its sets; 372 262 with 16-byte L1
    // ways and bitmask torus link state; 273 922 with the RRPP dedup
    // window in a ring of 24-byte entries and a table of ring-slot
    // indices instead of a FlatMap of packed keys (32 KiB, was 128 KiB);
    // 251 167 with NI and link rings of 4- to 16-byte packet ids where
    // they held 112- to 136-byte messages. The bound is the last figure
    // plus under 10%.
    constexpr std::uint64_t kBoundBytes = 269 * 1024;
    constexpr std::uint32_t kNodes = 64;
    const std::uint64_t b0 = g_allocBytes;
    api::TestBed bed(api::ClusterSpec{}
                         .nodes(kNodes)
                         .torus(4, 4, 4)
                         .l2PerNode(256 * 1024)
                         .qpDepth(64));
    const std::uint64_t perNode = (g_allocBytes - b0) / kNodes;
    RecordProperty("heap_bytes_per_node", std::to_string(perNode));
    EXPECT_LE(perNode, kBoundBytes);
}

/**
 * Stream 5'000 warmed packets 0 -> @p dst through @p fabric and expect
 * no allocation on the send, forward, park, drop and deliver path. The
 * sink drains its eject queue only every 2 us, so the queue fills and
 * packets park at it, and link 0 -> 1 loses what it carries for 1 us of
 * every 8 us. Every packet is delivered or dropped, and once the run
 * quiesces the pool holds none.
 */
void
expectAllocationFreeFabricPath(sim::EventQueue &eq, fab::Fabric &fabric,
                               sim::StatRegistry &stats, sim::NodeId dst,
                               const std::string &prefix)
{
    std::vector<std::unique_ptr<fab::NetworkInterface>> nis;
    for (sim::NodeId i = 0; i <= dst; ++i)
        nis.push_back(std::make_unique<fab::NetworkInterface>(
            eq, stats, "ni" + std::to_string(i), i, fabric));

    fab::Message msg;
    msg.op = fab::Op::kReadReq;
    msg.srcNid = 0;
    msg.dstNid = dst;

    struct Stream
    {
        sim::EventQueue &eq;
        fab::Fabric &fabric;
        fab::NetworkInterface &src;
        fab::NetworkInterface &sink;
        fab::Message &msg;
        std::uint64_t toSend = 0;
        std::uint64_t received = 0;
        bool draining = false;

        /** Up to 8 packets every 10 ns: faster than the link drains. */
        void
        pump()
        {
            for (int i = 0; i < 8 && toSend > 0 && src.trySend(msg); ++i)
                --toSend;
            if (toSend > 0)
                eq.scheduleAfter(10 * sim::kTicksPerNs, [this] { pump(); });
        }

        void
        arrived()
        {
            if (draining)
                return;
            draining = true;
            eq.scheduleAfter(2 * sim::kTicksPerUs, [this] { drain(); });
        }

        void
        drain()
        {
            draining = false;
            while (sink.hasMessage(fab::Lane::kRequest)) {
                sink.pop(fab::Lane::kRequest);
                ++received;
            }
        }

        void
        lossyWindow()
        {
            fabric.setLinkLossy(0, 1, true);
            eq.scheduleAfter(sim::kTicksPerUs, [this] {
                fabric.setLinkLossy(0, 1, false);
                if (toSend > 0)
                    eq.scheduleAfter(7 * sim::kTicksPerUs,
                                     [this] { lossyWindow(); });
            });
        }

        void
        run(std::uint64_t packets)
        {
            toSend = packets;
            received = 0;
            lossyWindow();
            pump();
            eq.run();
        }
    } stream{eq, fabric, *nis[0], *nis[dst], msg};
    nis[dst]->onArrival(fab::Lane::kRequest,
                        [&stream] { stream.arrived(); });

    // Warm-up: the same run sizes the pool, the NI, park and link
    // rings, and event storage to their peaks.
    stream.run(5'000);

    const std::uint64_t dropped0 = fabric.droppedMessages();
    const std::uint64_t parked0 = stats.counter(prefix + ".parked")->value();
    const std::uint64_t a0 = g_allocCount;
    stream.run(5'000);
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "warmed fabric send/park/drop/deliver path must not allocate";
    const std::uint64_t dropped = fabric.droppedMessages() - dropped0;
    EXPECT_GT(dropped, 0u) << "the lossy windows must bite";
    EXPECT_GT(stats.counter(prefix + ".parked")->value(), parked0)
        << "the slow sink must park packets";
    EXPECT_EQ(stream.received + dropped, 5'000u);
    EXPECT_EQ(fabric.livePackets(), 0u) << "a packet leaked from the pool";
}

TEST(AllocCounting, SteadyStateFabricPathIsAllocationFree)
{
    {
        sim::EventQueue eq;
        sim::StatRegistry stats;
        fab::CrossbarFabric xbar(eq, stats);
        expectAllocationFreeFabricPath(eq, xbar, stats, 1, "fabric");
    }
    // Two torus hops: the packet is forwarded through node 1's router.
    sim::EventQueue eq;
    sim::StatRegistry stats;
    fab::TorusParams ring;
    ring.dims = {4};
    fab::TorusFabric torus(eq, stats, ring);
    expectAllocationFreeFabricPath(eq, torus, stats, 2, "torus");
}

} // namespace
