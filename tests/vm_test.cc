/**
 * @file
 * Tests for virtual memory: frame allocation, page-table walks (both the
 * functional walk and the PTE layout contract the hardware walker relies
 * on), and address-space functional access.
 */

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/log.hh"
#include "vm/address_space.hh"
#include "vm/page_table.hh"

namespace {

using namespace sonuma;
using mem::PhysMem;
using vm::AddressSpace;
using vm::FrameAllocator;
using vm::PageTable;

struct VmFixture : public ::testing::Test
{
    PhysMem mem{256ull << 20};
    FrameAllocator frames{0, 256ull << 20};
};

TEST_F(VmFixture, FrameAllocatorDistinctAndRecycles)
{
    auto f1 = frames.alloc();
    auto f2 = frames.alloc();
    EXPECT_NE(f1, f2);
    EXPECT_EQ(f1 % vm::kPageBytes, 0u);
    EXPECT_EQ(frames.allocated(), 2u);
    frames.free(f1);
    EXPECT_EQ(frames.alloc(), f1); // LIFO recycling
}

TEST_F(VmFixture, ExhaustionIsFatal)
{
    FrameAllocator tiny(0, 2 * vm::kPageBytes);
    tiny.alloc();
    tiny.alloc();
    EXPECT_THROW(tiny.alloc(), sim::FatalError);
}

TEST_F(VmFixture, MapThenTranslate)
{
    PageTable pt(mem, frames);
    const auto frame = frames.alloc();
    pt.map(0x200000, frame);
    auto pa = pt.translate(0x200000 + 123);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, frame + 123);
}

TEST_F(VmFixture, UnmappedTranslatesToNullopt)
{
    PageTable pt(mem, frames);
    EXPECT_FALSE(pt.translate(0x200000).has_value());
    pt.map(0x200000, frames.alloc());
    EXPECT_TRUE(pt.translate(0x200000).has_value());
    // Neighbouring pages are still unmapped.
    EXPECT_FALSE(pt.translate(0x200000 + vm::kPageBytes).has_value());
    // Beyond the 43-bit VA the index bits would alias the mapped page;
    // the range check rejects it, in translate and in the static walk.
    const vm::VAddr alias = 0x200000 + (1ull << vm::kVaBits);
    EXPECT_FALSE(pt.translate(alias).has_value());
    EXPECT_FALSE(PageTable::walk(mem, pt.root(), alias).has_value());
    EXPECT_EQ(PageTable::walk(mem, pt.root(), 0x200000),
              pt.translate(0x200000));
}

TEST_F(VmFixture, UnmapRemovesMapping)
{
    PageTable pt(mem, frames);
    pt.map(0x400000, frames.alloc());
    pt.unmap(0x400000);
    EXPECT_FALSE(pt.translate(0x400000).has_value());
}

TEST_F(VmFixture, WalkLevelsMatchHardwareContract)
{
    // The RMC page walker performs kLevels dependent loads starting at
    // root(); verify the PTE chain is exactly what translate() computes.
    PageTable pt(mem, frames);
    const vm::VAddr va = (5ull << 33) | (17ull << 23) | (3ull << 13);
    const auto frame = frames.alloc();
    pt.map(va, frame);

    mem::PAddr table = pt.root();
    for (std::uint32_t level = 0; level < vm::kLevels; ++level) {
        const auto pte =
            mem.readT<std::uint64_t>(PageTable::pteAddr(table, level, va));
        ASSERT_TRUE(PageTable::pteValid(pte)) << "level " << level;
        table = PageTable::pteFrame(pte);
    }
    EXPECT_EQ(table, frame);
}

TEST_F(VmFixture, IndexExtraction)
{
    const vm::VAddr va = (1ull << 33) | (2ull << 23) | (3ull << 13) | 7;
    EXPECT_EQ(PageTable::indexAt(0, va), 1u);
    EXPECT_EQ(PageTable::indexAt(1, va), 2u);
    EXPECT_EQ(PageTable::indexAt(2, va), 3u);
}

TEST_F(VmFixture, DenseMappingsShareTableNodes)
{
    PageTable pt(mem, frames);
    const auto before = pt.tableNodes();
    // 1024 consecutive pages fit one leaf table.
    for (std::uint64_t i = 0; i < 1024; ++i)
        pt.map(i * vm::kPageBytes, frames.alloc());
    // Root + 1 mid + 1 leaf added at most.
    EXPECT_LE(pt.tableNodes() - before, 2u);
}

TEST_F(VmFixture, AddressSpaceAllocIsZeroedAndMapped)
{
    AddressSpace as(mem, frames);
    const auto va = as.alloc(3 * vm::kPageBytes + 5);
    EXPECT_TRUE(as.mapped(va));
    EXPECT_TRUE(as.mapped(va + 3 * vm::kPageBytes)); // rounded up to 4
    EXPECT_EQ(as.readT<std::uint64_t>(va), 0u);
}

TEST_F(VmFixture, AddressSpaceReadWriteAcrossPages)
{
    AddressSpace as(mem, frames);
    const auto va = as.alloc(4 * vm::kPageBytes);
    std::vector<std::uint8_t> src(2 * vm::kPageBytes);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 31);
    const auto at = va + vm::kPageBytes - 100; // straddles a boundary
    as.write(at, src.data(), src.size());
    std::vector<std::uint8_t> dst(src.size());
    as.read(at, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

TEST_F(VmFixture, DistinctAllocationsDoNotOverlap)
{
    AddressSpace as(mem, frames);
    const auto a = as.alloc(vm::kPageBytes);
    const auto b = as.alloc(vm::kPageBytes);
    as.writeT<std::uint64_t>(a, 0x1111);
    as.writeT<std::uint64_t>(b, 0x2222);
    EXPECT_EQ(as.readT<std::uint64_t>(a), 0x1111u);
    EXPECT_EQ(as.readT<std::uint64_t>(b), 0x2222u);
}

TEST_F(VmFixture, UnmappedAccessIsFatal)
{
    AddressSpace as(mem, frames);
    EXPECT_THROW(as.readT<std::uint64_t>(0x10), sim::FatalError);
}

// Property test: random map/translate agreement against a reference map.
TEST_F(VmFixture, RandomMappingsAgreeWithReference)
{
    PageTable pt(mem, frames);
    std::unordered_map<vm::VAddr, mem::PAddr> ref;
    std::uint64_t x = 88172645463325252ull;
    auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 500; ++i) {
        const vm::VAddr va =
            (rnd() % (1ull << vm::kVaBits)) & ~(vm::kPageBytes - 1);
        const auto frame = frames.alloc();
        pt.map(va, frame);
        ref[va] = frame;
    }
    for (const auto &[va, frame] : ref) {
        auto pa = pt.translate(va + 42);
        ASSERT_TRUE(pa.has_value());
        EXPECT_EQ(*pa, frame + 42);
    }
}

// Property test: translate() stays exact across unmaps and remaps.
// 64 pages, so pages 32 apart share a slot of the 32-entry translation
// memo; every step first translates its page (memoizing it), then maps
// it to a fresh frame, unmaps it or only translates again. After every
// step the page and one random page must agree with the reference map
// and with the uncached static walk.
TEST_F(VmFixture, InterleavedUnmapAndRemapAgreeWithReference)
{
    PageTable pt(mem, frames);
    std::unordered_map<vm::VAddr, mem::PAddr> ref;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    constexpr std::uint64_t kPages = 64;
    constexpr vm::VAddr kBase = 0x4000000;
    auto pageVa = [&] { return kBase + (rnd() % kPages) * vm::kPageBytes; };
    auto check = [&](vm::VAddr page, int step) {
        const vm::VAddr va = page + 42;
        const std::optional<mem::PAddr> got = pt.translate(va);
        ASSERT_EQ(got, PageTable::walk(mem, pt.root(), va))
            << "step " << step;
        const auto it = ref.find(page);
        if (it == ref.end())
            ASSERT_FALSE(got.has_value()) << "step " << step;
        else
            ASSERT_EQ(got, it->second + 42) << "step " << step;
    };
    int remaps = 0;
    int unmaps = 0;
    for (int step = 0; step < 4'000; ++step) {
        const vm::VAddr page = pageVa();
        check(page, step);
        switch (rnd() % 4) {
          case 0:
          case 1: {
            remaps += ref.count(page) != 0;
            const mem::PAddr frame = frames.alloc();
            pt.map(page, frame);
            ref[page] = frame;
            break;
          }
          case 2:
            unmaps += ref.erase(page) != 0;
            pt.unmap(page);
            break;
          default:
            break;
        }
        check(page, step);
        check(pageVa(), step);
        if (HasFatalFailure())
            return;
    }
    // The sequence must exercise both invalidations on live mappings.
    EXPECT_GT(remaps, 500);
    EXPECT_GT(unmaps, 300);
}

} // namespace
