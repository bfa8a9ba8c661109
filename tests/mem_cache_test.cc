/**
 * @file
 * Tests for the coherent cache hierarchy: hit/miss timing, MSHR merging
 * and limits, upgrades, cache-to-cache transfers (the mechanism behind
 * the paper's low-latency queue-pair polling), writebacks, inclusion,
 * probe/writeback races, out-of-order fills through the packed MSHRs,
 * and replacement on both set-index paths against a reference LRU, also
 * when concurrent misses over-fill an L2 set; the L1's packed tag/state
 * word through every state change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace {

using namespace sonuma;
using mem::CacheParams;
using mem::DramChannel;
using mem::DramParams;
using mem::L1Cache;
using mem::L2Cache;
using sim::EventQueue;
using sim::StatRegistry;
using sim::Tick;

struct CacheFixture : public ::testing::Test
{
    EventQueue eq;
    StatRegistry stats;
    DramChannel dram{eq, stats, "dram", DramParams{}};
    L2Cache l2{eq, stats, "l2", L2Cache::Params{}, dram};
    L1Cache core{eq, stats, "core.l1", CacheParams{}, l2};
    L1Cache rmc{eq, stats, "rmc.l1", CacheParams{}, l2};

    /** Run one access to completion and return its latency in ns. */
    double
    timedAccess(L1Cache &l1, std::uint64_t addr, bool write)
    {
        const Tick start = eq.now();
        Tick end = 0;
        l1.access(addr, write, [&] { end = eq.now(); });
        eq.run();
        return sim::ticksToNs(end - start);
    }
};

TEST_F(CacheFixture, ColdMissGoesToDram)
{
    const double ns = timedAccess(core, 0x1000, false);
    // L1 (1.5) + L2 (3) + DRAM (~45-60) and fill path.
    EXPECT_GE(ns, 40.0);
    EXPECT_LE(ns, 90.0);
    EXPECT_EQ(core.misses(), 1u);
    EXPECT_EQ(l2.misses(), 1u);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u);
}

TEST_F(CacheFixture, L1HitIsFast)
{
    timedAccess(core, 0x1000, false);
    const double ns = timedAccess(core, 0x1000, false);
    EXPECT_DOUBLE_EQ(ns, 1.5); // 3 cycles @ 2 GHz
    EXPECT_EQ(core.hits(), 1u);
}

TEST_F(CacheFixture, L2HitAvoidsDram)
{
    timedAccess(core, 0x2000, false);
    // A second L1 misses in its own L1 but hits the now-filled L2.
    const double ns = timedAccess(rmc, 0x2000, false);
    EXPECT_LT(ns, 10.0);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u);
    EXPECT_EQ(l2.hits(), 1u);
}

TEST_F(CacheFixture, WriteThenRemoteReadIsCacheToCache)
{
    timedAccess(core, 0x3000, true); // core holds M
    const double ns = timedAccess(rmc, 0x3000, false);
    // Probe downgrade, not DRAM: this is the queue-pair polling path.
    EXPECT_LT(ns, 15.0);
    EXPECT_EQ(l2.cacheToCacheTransfers(), 1u);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u); // only cold fill
}

TEST_F(CacheFixture, WriteInvalidatesOtherSharers)
{
    timedAccess(core, 0x4000, false);
    timedAccess(rmc, 0x4000, false); // both S
    timedAccess(core, 0x4000, true); // invalidates rmc
    // rmc read must now miss in its L1 (re-fetch via L2 + probe).
    const std::uint64_t missesBefore = rmc.misses();
    timedAccess(rmc, 0x4000, false);
    EXPECT_EQ(rmc.misses(), missesBefore + 1);
}

TEST_F(CacheFixture, UpgradeFromSharedToModified)
{
    timedAccess(core, 0x5000, false); // S
    const double ns = timedAccess(core, 0x5000, true);
    // Upgrade: L1 re-request to L2, but no DRAM traffic.
    EXPECT_LT(ns, 15.0);
    EXPECT_EQ(stats.counter("core.l1.upgrades")->value(), 1u);
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u);
}

TEST_F(CacheFixture, MshrMergesSameLineRequests)
{
    int done = 0;
    core.access(0x6000, false, [&] { ++done; });
    core.access(0x6000, false, [&] { ++done; });
    core.access(0x6020, false, [&] { ++done; }); // same 64 B line
    eq.run();
    EXPECT_EQ(done, 3);
    // One transaction serves all three.
    EXPECT_EQ(stats.counter("dram.reads")->value(), 1u);
}

TEST_F(CacheFixture, WriteWaiterOnReadFillRetriesAsUpgrade)
{
    int done = 0;
    core.access(0x7000, false, [&] { ++done; });
    // A write to the same line while the read is outstanding.
    core.access(0x7000, true, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    // The line must end up writable: a further write hits.
    const double ns = timedAccess(core, 0x7000, true);
    EXPECT_DOUBLE_EQ(ns, 1.5);
}

TEST_F(CacheFixture, MshrLimitBlocksExcessMisses)
{
    CacheParams small;
    small.mshrs = 2;
    L1Cache tiny(eq, stats, "tiny.l1", small, l2);
    int done = 0;
    for (int i = 0; i < 8; ++i)
        tiny.access(0x10000 + static_cast<std::uint64_t>(i) * 4096, false,
                    [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 8); // all eventually complete
}

TEST_F(CacheFixture, DirtyEvictionWritesBack)
{
    // Fill one L1 set beyond associativity with dirty lines.
    // 32 KB / 64 B / 2-way = 256 sets; same set every 256 lines.
    const std::uint64_t setStride = 256 * 64;
    for (int i = 0; i < 3; ++i)
        timedAccess(core, static_cast<std::uint64_t>(i) * setStride, true);
    EXPECT_EQ(stats.counter("core.l1.writebacks")->value(), 1u);
    // The evicted line's data must still be readable (from L2, clean).
    const double ns = timedAccess(core, 0, false);
    EXPECT_LT(ns, 15.0); // L2 hit: no DRAM re-fetch
}

// The state lives in the tag's low 6 bits; a way is 16 bytes.
static_assert(sizeof(L1Cache::LineInfo) == 16);

TEST_F(CacheFixture, PackedLineStateRoundTripsThroughEveryTransition)
{
    using State = L1Cache::State;
    // Line 0 and a line with high tag bits (in another set), each with
    // two set-mates: the tag must survive the state bits, and a zero
    // tag must not read as a resident line.
    const std::uint64_t setStride = 256 * 64;
    const std::uint64_t high = 0x7fff'ffff'0000 + 7 * 64;
    for (const std::uint64_t a : {std::uint64_t{0}, high}) {
        SCOPED_TRACE(a);
        EXPECT_EQ(core.stateOf(a), State::kInvalid);
        timedAccess(core, a + 8, false); // fill, read
        EXPECT_EQ(core.stateOf(a), State::kShared);
        timedAccess(core, a, true); // upgrade
        EXPECT_EQ(core.stateOf(a + 63), State::kModified);
        timedAccess(rmc, a, false); // probe-downgrade of core's copy
        EXPECT_EQ(core.stateOf(a), State::kShared);
        EXPECT_EQ(rmc.stateOf(a), State::kShared);
        timedAccess(rmc, a, true); // probe-invalidate of core's copy
        EXPECT_EQ(core.stateOf(a), State::kInvalid);
        EXPECT_EQ(rmc.stateOf(a), State::kModified);
        timedAccess(core, a, true); // refill in M, invalidating rmc
        EXPECT_EQ(core.stateOf(a), State::kModified);
        EXPECT_EQ(rmc.stateOf(a), State::kInvalid);
        // Eviction: two set-mates push a out (LRU), dirty, so written
        // back; the set-mates keep their own tags and states.
        const std::uint64_t wb = core.misses();
        timedAccess(core, a + setStride, false);
        timedAccess(core, a + 2 * setStride, true);
        EXPECT_EQ(core.stateOf(a), State::kInvalid);
        EXPECT_EQ(core.stateOf(a + setStride), State::kShared);
        EXPECT_EQ(core.stateOf(a + 2 * setStride), State::kModified);
        EXPECT_EQ(core.misses(), wb + 2);
        const double ns = timedAccess(core, a, false); // L2 hit
        EXPECT_LT(ns, 15.0);
        EXPECT_EQ(core.stateOf(a), State::kShared);
    }
    EXPECT_EQ(stats.counter("core.l1.writebacks")->value(), 2u);
}

TEST_F(CacheFixture, ProbeDuringPendingWritebackResolves)
{
    // core dirties line A, evicts it (PutM in flight), rmc reads A.
    const std::uint64_t setStride = 256 * 64;
    const std::uint64_t lineA = 0x8000;
    timedAccess(core, lineA, true);
    // Evict A by touching two more lines in its set (no run to completion:
    // keep the PutM and the rmc read racing).
    core.access(lineA + setStride, true, [] {});
    core.access(lineA + 2 * setStride, true, [] {});
    int rmcDone = 0;
    rmc.access(lineA, false, [&] { ++rmcDone; });
    eq.run();
    EXPECT_EQ(rmcDone, 1);
}

TEST_F(CacheFixture, L2EvictionBackInvalidatesL1)
{
    // Use a tiny L2 to force eviction.
    EventQueue eq2;
    StatRegistry st2;
    DramChannel dram2(eq2, st2, "dram", DramParams{});
    L2Cache::Params tiny;
    tiny.sizeBytes = 8 * 1024; // 128 lines, 16-way -> 8 sets
    L2Cache l2b(eq2, st2, "l2", tiny, dram2);
    L1Cache l1b(eq2, st2, "l1", CacheParams{}, l2b);

    auto touch = [&](std::uint64_t addr) {
        l1b.access(addr, false, [] {});
        eq2.run();
    };
    // 8 sets * 64 B = 512 B stride hits the same L2 set.
    for (int i = 0; i < 20; ++i)
        touch(static_cast<std::uint64_t>(i) * 512);
    EXPECT_GT(st2.counter("l2.evictions")->value(), 0u);
    // Inclusion: evicted lines were invalidated in the L1 too, so the L1
    // must re-miss on the earliest line.
    const std::uint64_t missesBefore = l1b.misses();
    touch(0);
    EXPECT_EQ(l1b.misses(), missesBefore + 1);
}

TEST_F(CacheFixture, ConcurrentMixedTrafficCompletes)
{
    // Property-style smoke: many interleaved reads/writes from two L1s to
    // overlapping lines all complete, and no DRAM read is issued twice for
    // a line both L1s share via L2.
    int done = 0;
    const int kOps = 400;
    for (int i = 0; i < kOps; ++i) {
        eq.schedule(static_cast<Tick>(i) * 100, [this, i, &done] {
            L1Cache &l1 = (i % 3 == 0) ? rmc : core;
            const std::uint64_t addr =
                (static_cast<std::uint64_t>(i) % 32) * 64;
            const bool write = (i % 7 == 0);
            l1.access(addr, write, [&done] { ++done; });
        });
    }
    eq.run();
    EXPECT_EQ(done, kOps);
    // 32 distinct lines -> at most 32 cold DRAM reads.
    EXPECT_LE(stats.counter("dram.reads")->value(), 32u);
}

TEST_F(CacheFixture, OutOfOrderFillsKeepWaitersFifoAndMshrsPacked)
{
    // Eight lines the L2 already holds (fast fills) and eight it must
    // fetch from DRAM (slow fills). The DRAM lines take the first MSHRs,
    // so the fast fills free MSHRs inside the packed range. Each line
    // gets a read, a write and a read merged into one MSHR.
    std::vector<std::uint64_t> dramLines, l2Lines;
    for (std::uint64_t i = 0; i < 8; ++i) {
        dramLines.push_back(0x100000 + i * 64);
        l2Lines.push_back(0x200000 + i * 64);
        timedAccess(rmc, l2Lines.back(), false);
    }

    struct Done
    {
        std::uint64_t line;
        int waiter;
    };
    // Everything the waiters touch, so each captures {state, line, w}.
    struct Waiters
    {
        L1Cache &core;
        const sim::Counter &upgrades;
        std::vector<Done> log;
        int firstReads = 0, writes = 0;
    } st{core, *stats.counter("core.l1.upgrades"), {}};
    const std::vector<Done> &log = st.log;
    const sim::Counter &upgrades = st.upgrades;
    auto issue = [&](std::uint64_t line) {
        for (int w = 0; w < 3; ++w) {
            core.access(line, w == 1, [s = &st, line, w] {
                s->log.push_back({line, w});
                s->firstReads += w == 0;
                s->writes += w == 1;
                // Open MSHRs: read misses not yet filled, plus the
                // upgrades (write waiters retried after a read fill)
                // started and not yet filled.
                EXPECT_EQ(s->core.inflight(),
                          std::size_t(16 - s->firstReads) +
                              (s->upgrades.value() -
                               std::size_t(s->writes)));
            });
        }
    };
    for (auto line : dramLines)
        issue(line);
    for (auto line : l2Lines)
        issue(line);
    eq.runUntil(eq.now() + CacheParams{}.latency());
    EXPECT_EQ(core.inflight(), 16u); // merged waiters share an MSHR

    eq.run();
    ASSERT_EQ(log.size(), 48u);
    EXPECT_EQ(core.inflight(), 0u);
    EXPECT_EQ(upgrades.value(), 16u);

    // Per line: the reads run in issue order at the fill, and the write
    // completes after both, once its upgrade fills.
    std::vector<std::uint64_t> lines = dramLines;
    lines.insert(lines.end(), l2Lines.begin(), l2Lines.end());
    for (auto line : lines) {
        std::vector<int> order;
        for (const Done &d : log) {
            if (d.line == line)
                order.push_back(d.waiter);
        }
        EXPECT_EQ(order, (std::vector<int>{0, 2, 1})) << line;
    }
    // Every L2-held line filled before any DRAM line: fills completed
    // out of MSHR allocation order.
    auto firstDram = std::find_if(log.begin(), log.end(), [](const Done &d) {
        return d.line < 0x200000;
    });
    const auto l2Before = std::count_if(
        log.begin(), firstDram,
        [](const Done &d) { return d.line >= 0x200000 && d.waiter == 0; });
    EXPECT_EQ(l2Before, 8);
}

TEST_F(CacheFixture, FillNeverEvictsALineWithAnOpenMshr)
{
    // A, B and C share one L1 set (2 ways). A is the LRU way, but its
    // S->M upgrade is still open (the probe of rmc's copy makes it
    // slower than C's L2 hit) when C's fill needs a victim. The victim
    // must be B, whose dirty eviction is counted at C's fill.
    const std::uint64_t setStride = 256 * 64;
    const std::uint64_t a = 0x40000, b = a + setStride, c = a + 2 * setStride;
    timedAccess(rmc, a, false);
    timedAccess(rmc, c, false); // C is in the L2
    timedAccess(core, a, false);
    timedAccess(core, b, true); // core's set: A (S, LRU), B (M)

    const sim::Counter &writebacks = *stats.counter("core.l1.writebacks");
    bool aDone = false, cDone = false;
    core.access(a, true, [&] { aDone = true; }); // MSHR open on A
    core.access(c, false, [&] {
        cDone = true;
        EXPECT_FALSE(aDone) << "A's upgrade must still be open";
        EXPECT_EQ(writebacks.value(), 1u) << "C's fill must evict B";
    });
    eq.run();
    EXPECT_TRUE(aDone && cDone);
    EXPECT_EQ(stats.counter("core.l1.upgrades")->value(), 1u);
    EXPECT_EQ(writebacks.value(), 1u);
    // A stayed resident and is now M: a write hits.
    EXPECT_DOUBLE_EQ(timedAccess(core, a, true), 1.5);
}

/**
 * Reference model: set-associative LRU over line addresses, set = line
 * index modulo the set count, invalid ways filled first.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t sizeBytes, std::uint32_t assoc)
        : assoc_(assoc), sets_(sizeBytes / 64 / assoc)
    {
    }

    void
    access(std::uint64_t line)
    {
        auto &set = sets_[(line / 64) % sets_.size()]; // LRU first
        auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            ++hits;
            set.erase(it);
        } else {
            ++misses;
            if (set.size() == assoc_) {
                ++evictions;
                set.erase(set.begin());
            }
        }
        set.push_back(line);
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    std::size_t assoc_;
    std::vector<std::vector<std::uint64_t>> sets_;
};

/** @p n seeded line addresses drawn from @p span distinct lines. */
std::vector<std::uint64_t>
seededLines(std::uint64_t seed, int n, std::uint64_t span)
{
    sim::Rng rng(seed);
    std::vector<std::uint64_t> lines;
    for (int i = 0; i < n; ++i)
        lines.push_back(0x1000000 + rng.below(span) * 64);
    return lines;
}

TEST(CacheReference, L2MatchesReferenceLruOnBothSetIndexPaths)
{
    // 48 KiB / 16 ways = 48 sets (modulo path); 64 KiB = 64 (mask path).
    for (const std::uint64_t size : {48 * 1024ull, 64 * 1024ull}) {
        SCOPED_TRACE(size);
        EventQueue eq;
        StatRegistry st;
        DramChannel dram(eq, st, "dram", DramParams{});
        L2Cache::Params params;
        params.sizeBytes = size;
        L2Cache l2(eq, st, "l2", params, dram);
        L1Cache l1(eq, st, "l1", CacheParams{}, l2); // directory id 0
        ReferenceLru ref(size, params.assoc);
        // Reads straight into the L2, one at a time: its replacement
        // order is exactly recency of use.
        for (const auto line : seededLines(size, 4000, 2 * size / 64)) {
            l2.request(0, line, false, false, [] {});
            eq.run();
            ref.access(line);
        }
        EXPECT_GT(ref.hits, 1000u);
        EXPECT_GT(ref.evictions, 1000u);
        EXPECT_EQ(l2.hits(), ref.hits);
        EXPECT_EQ(l2.misses(), ref.misses);
        EXPECT_EQ(st.counter("l2.evictions")->value(), ref.evictions);
    }
}

/**
 * Reference for one L2 set under concurrent requests. A miss makes room
 * only if the set is full when the L2 processes it: it evicts the least
 * recently used line no transaction holds (the first installed on a
 * tie). Its line is installed when its DRAM fill returns. Misses whose
 * fetches overlap all see room, so the set over-fills past its
 * associativity and stays over-full (ROADMAP item 9).
 */
class OverfillingSet
{
  public:
    explicit OverfillingSet(std::size_t assoc) : assoc_(assoc) {}

    bool
    resident(std::uint64_t line)
    {
        return find(line) != lines_.end();
    }

    /** Make room for a miss while @p held lines are mid-transaction. */
    void
    makeRoom(const std::vector<std::uint64_t> &held)
    {
        if (lines_.size() < assoc_)
            return;
        auto victim = lines_.end();
        for (auto it = lines_.begin(); it != lines_.end(); ++it) {
            if (std::find(held.begin(), held.end(), it->addr) != held.end())
                continue;
            if (victim == lines_.end() || it->lastUse < victim->lastUse)
                victim = it;
        }
        ASSERT_NE(victim, lines_.end()) << "no victim: the L2 would retry";
        victims.push_back(victim->addr);
        lines_.erase(victim);
    }

    /** A request for @p line completed at @p now: a hit or an install. */
    void
    complete(std::uint64_t line, Tick now)
    {
        if (const auto it = find(line); it != lines_.end())
            it->lastUse = now;
        else
            lines_.push_back({line, now});
    }

    std::size_t size() const { return lines_.size(); }

    std::vector<std::uint64_t>
    lines() const
    {
        std::vector<std::uint64_t> out;
        for (const auto &l : lines_)
            out.push_back(l.addr);
        return out;
    }

    std::vector<std::uint64_t> victims;

  private:
    struct Line
    {
        std::uint64_t addr;
        Tick lastUse;
    };

    std::vector<Line>::iterator
    find(std::uint64_t line)
    {
        return std::find_if(lines_.begin(), lines_.end(),
                            [line](const Line &l) { return l.addr == line; });
    }

    std::size_t assoc_;
    std::vector<Line> lines_; //!< install order
};

TEST(CacheReference, ConcurrentMissesOverfillOneL2SetLikeTheReference)
{
    // A one-set, 4-way L2 gets bursts of 1-4 distinct reads issued in
    // one tick, drawn from 12 lines. Every burst must agree with the
    // reference on hits, misses and evictions; a wrong victim shows up
    // as a later hit/miss mismatch.
    constexpr std::uint32_t kAssoc = 4;
    EventQueue eq;
    StatRegistry st;
    DramChannel dram(eq, st, "dram", DramParams{});
    L2Cache::Params params;
    params.assoc = kAssoc;
    params.sizeBytes = kAssoc * 64;
    L2Cache l2(eq, st, "l2", params, dram);
    L1Cache l1(eq, st, "l1", CacheParams{}, l2); // directory id 0
    OverfillingSet ref(kAssoc);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t largest = 0;
    sim::Rng rng(23);

    const auto burst = [&](const std::vector<std::uint64_t> &lines) {
        std::vector<std::pair<std::uint64_t, Tick>> done;
        for (const auto line : lines) {
            l2.request(0, line, false, false, [&done, &eq, line] {
                done.push_back({line, eq.now()});
            });
            if (ref.resident(line)) {
                ++hits;
            } else {
                ++misses;
                ref.makeRoom(lines);
            }
        }
        eq.run();
        ASSERT_EQ(done.size(), lines.size());
        for (const auto &[line, at] : done)
            ref.complete(line, at);
        largest = std::max(largest, ref.size());
        ASSERT_EQ(l2.hits(), hits);
        ASSERT_EQ(l2.misses(), misses);
        ASSERT_EQ(st.counter("l2.evictions")->value(), ref.victims.size());
    };

    for (int round = 0; round < 400; ++round) {
        std::vector<std::uint64_t> lines;
        const auto n = 1 + rng.below(4);
        while (lines.size() < n) {
            const std::uint64_t line = 0x40000 + rng.below(12) * 64;
            if (std::find(lines.begin(), lines.end(), line) == lines.end())
                lines.push_back(line);
        }
        burst(lines);
    }
    EXPECT_GT(largest, kAssoc) << "the bursts never over-filled the set";
    EXPECT_GT(ref.victims.size(), 100u);

    // Final contents: each line the reference holds hits, one request
    // at a time, and each line it does not hold then misses.
    const std::uint64_t missesBefore = misses;
    const auto resident = ref.lines();
    for (const auto line : resident)
        burst({line});
    EXPECT_EQ(l2.misses(), missesBefore);
    for (std::uint64_t i = 0; i < 12; ++i) {
        const std::uint64_t line = 0x40000 + i * 64;
        if (std::find(resident.begin(), resident.end(), line) ==
            resident.end())
            burst({line});
    }
    EXPECT_EQ(l2.misses(), missesBefore + 12 - resident.size());
}

TEST(CacheReference, L1MatchesReferenceLruOnBothSetIndexPaths)
{
    // 48 KiB / 2 ways = 384 sets (modulo path); 32 KiB = 256 (mask path).
    for (const std::uint64_t size : {48 * 1024ull, 32 * 1024ull}) {
        SCOPED_TRACE(size);
        EventQueue eq;
        StatRegistry st;
        DramChannel dram(eq, st, "dram", DramParams{});
        L2Cache l2(eq, st, "l2", L2Cache::Params{}, dram);
        CacheParams params;
        params.sizeBytes = size;
        L1Cache l1(eq, st, "l1", params, l2);
        ReferenceLru ref(size, params.assoc);
        // Writes only: every resident line is dirty, so each eviction
        // is a counted writeback. The 4 MiB L2 never evicts.
        for (const auto line : seededLines(size, 4000, 2 * size / 64)) {
            l1.access(line, true, [] {});
            eq.run();
            ref.access(line);
        }
        EXPECT_GT(ref.hits, 1000u);
        EXPECT_GT(ref.evictions, 1000u);
        EXPECT_EQ(l1.hits(), ref.hits);
        EXPECT_EQ(l1.misses(), ref.misses);
        EXPECT_EQ(st.counter("l1.writebacks")->value(), ref.evictions);
    }
}

} // namespace
