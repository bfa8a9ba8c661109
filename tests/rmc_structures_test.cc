/**
 * @file
 * Unit tests for RMC building blocks: TLB, MAQ (store-to-load forwarding,
 * capacity), Context Table + CT$, page walker, queue-pair layouts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "rmc/context_table.hh"
#include "rmc/maq.hh"
#include "rmc/page_walker.hh"
#include "rmc/queue_pair.hh"
#include "rmc/tlb.hh"
#include "sim/simulation.hh"

namespace {

using namespace sonuma;

TEST(QueuePairLayout, RingCursorPhaseTogglesPerLap)
{
    rmc::RingCursor c(4);
    EXPECT_EQ(c.expectedPhase(), 1); // lap 0
    for (int i = 0; i < 4; ++i)
        c.advance();
    EXPECT_EQ(c.index(), 0u);
    EXPECT_EQ(c.expectedPhase(), 0); // lap 1
    for (int i = 0; i < 4; ++i)
        c.advance();
    EXPECT_EQ(c.expectedPhase(), 1); // lap 2
}

TEST(QueuePairLayout, EntryAddressing)
{
    rmc::QpDescriptor qp;
    qp.wqBase = 0x10000;
    qp.cqBase = 0x20000;
    qp.entries = 64;
    EXPECT_EQ(qp.wqEntryVa(0), 0x10000u);
    EXPECT_EQ(qp.wqEntryVa(3), 0x10000u + 3 * 64);
    EXPECT_EQ(qp.cqEntryVa(3), 0x20000u + 3 * 8);
}

TEST(Tlb, HitAfterInsert)
{
    sim::StatRegistry stats;
    rmc::Tlb tlb(stats, "tlb", 4);
    EXPECT_FALSE(tlb.lookup(1, 0x4000).has_value());
    tlb.insert(1, 0x4000, 0x80000);
    auto pa = tlb.lookup(1, 0x4000 + 17);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x80000u + 17);
    EXPECT_EQ(tlb.hitCount(), 1u);
    EXPECT_EQ(tlb.missCount(), 1u);
}

TEST(Tlb, TaggedByContext)
{
    sim::StatRegistry stats;
    rmc::Tlb tlb(stats, "tlb", 4);
    tlb.insert(1, 0x4000, 0x80000);
    EXPECT_FALSE(tlb.lookup(2, 0x4000).has_value());
}

TEST(Tlb, LruEviction)
{
    sim::StatRegistry stats;
    rmc::Tlb tlb(stats, "tlb", 2);
    tlb.insert(0, 0x0000, 0x10000);
    tlb.insert(0, 0x2000, 0x20000);
    tlb.lookup(0, 0x0000);          // refresh first entry
    tlb.insert(0, 0x4000, 0x30000); // evicts vpn of 0x2000
    EXPECT_TRUE(tlb.lookup(0, 0x0000).has_value());
    EXPECT_FALSE(tlb.lookup(0, 0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(0, 0x4000).has_value());
}

TEST(Tlb, FlushCtxOnlyDropsThatContext)
{
    sim::StatRegistry stats;
    rmc::Tlb tlb(stats, "tlb", 8);
    tlb.insert(1, 0x2000, 0x10000);
    tlb.insert(2, 0x2000, 0x20000);
    tlb.flushCtx(1);
    EXPECT_FALSE(tlb.lookup(1, 0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(2, 0x2000).has_value());
}

struct MaqFixture : public ::testing::Test
{
    sim::Simulation sim;
    mem::DramChannel dram{sim.eq(), sim.stats(), "dram", {}};
    mem::L2Cache l2{sim.eq(), sim.stats(), "l2", {}, dram};
    mem::L1Cache l1{sim.eq(), sim.stats(), "l1", {}, l2};
    rmc::Maq maq{sim.eq(), sim.stats(), "maq", l1, 4};
};

TEST_F(MaqFixture, CompletesAccesses)
{
    int done = 0;
    maq.submit(0x1000, false, false, [&] { ++done; });
    maq.submit(0x2000, true, false, [&] { ++done; });
    sim.run();
    EXPECT_EQ(done, 2);
}

TEST_F(MaqFixture, StoreToLoadForwarding)
{
    int order = 0;
    int storeDone = 0, loadDone = 0;
    maq.submit(0x1000, true, false, [&] { storeDone = ++order; });
    maq.submit(0x1000, false, false, [&] { loadDone = ++order; });
    sim.run();
    EXPECT_EQ(maq.forwardCount(), 1u);
    // The forwarded load completes with (after) the store, without a
    // second L1 access.
    EXPECT_EQ(storeDone, 1);
    EXPECT_EQ(loadDone, 2);
    EXPECT_EQ(l1.hits() + l1.misses(), 1u);
}

TEST_F(MaqFixture, LoadsForwardFromTheLowestSlotStoreToTheirLine)
{
    // Two stores to line X in flight, the younger in the lower slot: a
    // warm load to Y holds slot 0 and frees it before the second store
    // is submitted. Loads to X then forward from the store in the
    // lowest slot (the younger one), not from the oldest.
    const mem::PAddr x = 0x1000, y = 0x8000;
    l1.access(y, false, [] {});
    sim.run();

    std::vector<std::string> order;
    auto record = [&order](const char *what) {
        return [&order, what] { order.push_back(what); };
    };
    maq.submit(y, false, false, record("loadY"));  // slot 0, L1 hit
    maq.submit(x, true, false, record("store1")); // slot 1, miss
    const sim::Tick later = sim.eq().now() + sim::nsToTicks(10);
    sim.eq().schedule(later, [&] {
        ASSERT_EQ(order, std::vector<std::string>{"loadY"});
        maq.submit(x, true, false, record("store2")); // slot 0
        maq.submit(x, false, false, record("loadA"));
        maq.submit(x + 8, false, false, record("loadB")); // same line
        EXPECT_EQ(maq.inflight(), 2u); // forwarded loads take no slot
    });
    sim.run();
    EXPECT_EQ(maq.forwardCount(), 2u);
    EXPECT_EQ(order, (std::vector<std::string>{"loadY", "store1", "store2",
                                               "loadA", "loadB"}));

    // Both stores completed: a later load to X reaches the L1 itself.
    maq.submit(x, false, false, record("loadC"));
    sim.run();
    EXPECT_EQ(maq.forwardCount(), 2u);
    EXPECT_EQ(order.back(), "loadC");
    EXPECT_EQ(maq.inflight(), 0u);
}

TEST_F(MaqFixture, CapacityBoundsInflight)
{
    // 8 accesses into a 4-entry MAQ: all complete, stalls recorded.
    int done = 0;
    for (int i = 0; i < 8; ++i)
        maq.submit(0x1000 + static_cast<std::uint64_t>(i) * 4096, false,
                   false, [&] { ++done; });
    EXPECT_LE(maq.inflight(), 4u);
    sim.run();
    EXPECT_EQ(done, 8);
    EXPECT_GT(sim.stats().counter("maq.stalls")->value(), 0u);
}

TEST(ContextTable, InstallLookupRemove)
{
    sim::StatRegistry stats;
    rmc::ContextTable ct(stats, "ct", 0x1000, 8, 2);
    EXPECT_EQ(ct.entry(3), nullptr);
    rmc::CtEntry e;
    e.segBase = 0x100000;
    e.segBytes = 1 << 20;
    e.ptRoot = 0x2000;
    ct.install(3, e);
    ASSERT_NE(ct.entry(3), nullptr);
    EXPECT_EQ(ct.entry(3)->segBase, 0x100000u);
    ct.remove(3);
    EXPECT_EQ(ct.entry(3), nullptr);
}

TEST(ContextTable, EntryAddressForTimingCharges)
{
    sim::StatRegistry stats;
    rmc::ContextTable ct(stats, "ct", 0x8000, 8, 2);
    EXPECT_EQ(ct.entryAddr(0), 0x8000u);
    EXPECT_EQ(ct.entryAddr(5), 0x8000u + 5 * rmc::kCtEntryBytes);
}

TEST(ContextTable, CtCacheHitsAfterFill)
{
    sim::StatRegistry stats;
    rmc::ContextTable ct(stats, "ct", 0, 8, 2);
    rmc::CtEntry e;
    e.segBytes = 64;
    ct.install(1, e);
    EXPECT_FALSE(ct.cacheLookup(1)); // cold
    ct.fill(1);
    EXPECT_TRUE(ct.cacheLookup(1));
    EXPECT_EQ(ct.cacheHits(), 1u);
    EXPECT_EQ(ct.cacheMisses(), 1u);
}

TEST(ContextTable, InstallInvalidatesCache)
{
    sim::StatRegistry stats;
    rmc::ContextTable ct(stats, "ct", 0, 8, 2);
    rmc::CtEntry e;
    ct.install(1, e);
    ct.fill(1);
    ASSERT_TRUE(ct.cacheLookup(1));
    ct.install(1, e); // driver update behind the CT$
    EXPECT_FALSE(ct.cacheLookup(1));
}

TEST(ContextTable, DisabledCacheAlwaysMisses)
{
    sim::StatRegistry stats;
    rmc::ContextTable ct(stats, "ct", 0, 8, 2);
    rmc::CtEntry e;
    ct.install(1, e);
    ct.setCacheEnabled(false);
    ct.fill(1);
    EXPECT_FALSE(ct.cacheLookup(1));
}

struct WalkerFixture : public ::testing::Test
{
    sim::Simulation sim;
    mem::PhysMem phys{64ull << 20};
    vm::FrameAllocator frames{0, 64ull << 20};
    vm::PageTable pt{phys, frames};
    mem::DramChannel dram{sim.eq(), sim.stats(), "dram", {}};
    mem::L2Cache l2{sim.eq(), sim.stats(), "l2", {}, dram};
    mem::L1Cache l1{sim.eq(), sim.stats(), "l1", {}, l2};
    rmc::Maq maq{sim.eq(), sim.stats(), "maq", l1, 32};
    rmc::Tlb tlb{sim.stats(), "tlb", 4};
    rmc::PageWalker walker{sim.stats(), "walker", phys, maq, tlb};
};

TEST_F(WalkerFixture, WalkFillsTlb)
{
    const vm::VAddr va = 0x40000;
    const auto frame = frames.alloc();
    pt.map(va, frame);

    std::optional<mem::PAddr> out;
    sim.spawn([](WalkerFixture *f, vm::VAddr va,
                 std::optional<mem::PAddr> *out) -> sim::Task {
        co_await f->walker.translate(7, va, f->pt.root(), out);
    }(this, va + 5, &out));
    sim.run();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, frame + 5);
    EXPECT_EQ(walker.walkCount(), 1u);
    // Second translation: TLB hit, no new walk.
    std::optional<mem::PAddr> out2;
    sim.spawn([](WalkerFixture *f, vm::VAddr va,
                 std::optional<mem::PAddr> *out) -> sim::Task {
        co_await f->walker.translate(7, va, f->pt.root(), out);
    }(this, va + 9, &out2));
    sim.run();
    ASSERT_TRUE(out2.has_value());
    EXPECT_EQ(*out2, frame + 9);
    EXPECT_EQ(walker.walkCount(), 1u);
}

TEST_F(WalkerFixture, UnmappedVaYieldsNullopt)
{
    std::optional<mem::PAddr> out = mem::PAddr{123};
    sim.spawn([](WalkerFixture *f,
                 std::optional<mem::PAddr> *out) -> sim::Task {
        co_await f->walker.translate(7, 0x123000, f->pt.root(), out);
    }(this, &out));
    sim.run();
    EXPECT_FALSE(out.has_value());
}

TEST_F(WalkerFixture, WalkChargesDependentMemoryAccesses)
{
    const vm::VAddr va = 0x40000;
    pt.map(va, frames.alloc());
    const sim::Tick start = sim.now();
    sim.spawn([](WalkerFixture *f, vm::VAddr va) -> sim::Task {
        std::optional<mem::PAddr> out;
        co_await f->walker.translate(7, va, f->pt.root(), &out);
    }(this, va));
    sim.run();
    // Three dependent PTE loads, each at least an L1 access; cold ones
    // go to DRAM, so the walk takes >= ~100 ns.
    EXPECT_GT(sim.now() - start, sim::nsToTicks(100));
}

} // namespace
