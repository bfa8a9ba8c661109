/**
 * @file
 * Tests for sparse functional physical memory: demand-zero chunks,
 * byte-exact access across chunk boundaries, sizes that are not a whole
 * number of chunks, and the out-of-range panic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/phys_mem.hh"

namespace {

using sonuma::mem::PhysMem;

TEST(PhysMem, ZeroInitialized)
{
    PhysMem m(1 << 20);
    EXPECT_EQ(m.readT<std::uint64_t>(0), 0u);
    EXPECT_EQ(m.readT<std::uint64_t>((1 << 20) - 8), 0u);
}

TEST(PhysMem, ReadBackWritten)
{
    PhysMem m(1 << 20);
    m.writeT<std::uint64_t>(128, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(m.readT<std::uint64_t>(128), 0xdeadbeefcafef00dULL);
}

TEST(PhysMem, CrossChunkAccess)
{
    // Chunk size is 1 MiB; write a buffer straddling the boundary.
    PhysMem m(4ull << 20);
    std::vector<std::uint8_t> src(4096);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 13);
    const std::uint64_t addr = (1ull << 20) - 1000;
    m.write(addr, src.data(), src.size());
    std::vector<std::uint8_t> dst(src.size());
    m.read(addr, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
}

TEST(PhysMem, FreshMemoryAfterAnEarlierOneIsDestroyedReadsZero)
{
    // The perfbench rep pattern: build a bed, dirty its memory, tear it
    // down, build the next one in the same process. Whatever backing
    // the first one released must not show through in the second.
    constexpr std::uint64_t kSize = 8ull << 20;
    for (int rep = 0; rep < 3; ++rep) {
        PhysMem m(kSize);
        for (std::uint64_t a = 0; a < kSize; a += 4096) {
            ASSERT_EQ(m.readT<std::uint64_t>(a), 0u) << rep << " " << a;
            ASSERT_EQ(m.readT<std::uint64_t>(a + 4088), 0u);
        }
        m.fill(0, 0xa5, kSize);
    }
}

TEST(PhysMem, ReadWriteFillAcrossChunkBoundariesAreByteExact)
{
    // Spans of three chunks: a tail, one whole chunk and a head.
    constexpr std::uint64_t kChunk = 1ull << 20;
    PhysMem m(4 * kChunk);
    const std::uint64_t addr = kChunk - 777;
    std::vector<std::uint8_t> src(kChunk + 2000);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 31 + 7);
    m.write(addr, src.data(), src.size());
    std::vector<std::uint8_t> dst(src.size() + 2);
    m.read(addr - 1, dst.data(), dst.size());
    EXPECT_EQ(dst.front(), 0);
    EXPECT_EQ(dst.back(), 0);
    EXPECT_TRUE(std::equal(src.begin(), src.end(), dst.begin() + 1));

    m.fill(2 * kChunk - 5, 0x3c, 10);
    std::uint8_t around[12];
    m.read(2 * kChunk - 6, around, sizeof(around));
    for (std::size_t i = 0; i < sizeof(around); ++i) {
        const std::uint8_t want =
            i == 0 || i == 11 ? src[2 * kChunk - 6 + i - addr] : 0x3c;
        EXPECT_EQ(around[i], want) << i;
    }
}

TEST(PhysMem, PartialLastChunkIsUsableToItsLastByte)
{
    // TestBed sizes memory as max(256 MiB, 4 x segment), which need not
    // be a whole number of chunks.
    const std::uint64_t size = (3ull << 20) + 4096 + 24;
    PhysMem m(size);
    EXPECT_EQ(m.readT<std::uint64_t>(size - 8), 0u);
    m.writeT<std::uint64_t>(size - 8, 0x0123456789abcdefULL);
    EXPECT_EQ(m.readT<std::uint64_t>(size - 8), 0x0123456789abcdefULL);
    m.fill(size - 100, 0xee, 92);
    std::uint8_t last[100];
    m.read(size - 100, last, sizeof(last));
    EXPECT_EQ(last[91], 0xee);
    EXPECT_EQ(last[92], 0xef); // low byte of the word written above
    EXPECT_EQ(m.fetchAdd64(size - 8, 1), 0x0123456789abcdefULL);
}

TEST(PhysMem, SparseChunksOnlyMaterializeWhenTouched)
{
    // A 64 GB space must construct without allocating 64 GB.
    PhysMem m(64ull << 30);
    m.writeT<std::uint32_t>(48ull << 30, 7);
    EXPECT_EQ(m.readT<std::uint32_t>(48ull << 30), 7u);
}

TEST(PhysMem, FetchAdd64)
{
    PhysMem m(1 << 16);
    m.writeT<std::uint64_t>(64, 100);
    EXPECT_EQ(m.fetchAdd64(64, 5), 100u);
    EXPECT_EQ(m.fetchAdd64(64, 5), 105u);
    EXPECT_EQ(m.readT<std::uint64_t>(64), 110u);
}

TEST(PhysMem, CompareSwap64SucceedsOnMatch)
{
    PhysMem m(1 << 16);
    m.writeT<std::uint64_t>(8, 42);
    EXPECT_EQ(m.compareSwap64(8, 42, 77), 42u);
    EXPECT_EQ(m.readT<std::uint64_t>(8), 77u);
}

TEST(PhysMem, CompareSwap64FailsOnMismatch)
{
    PhysMem m(1 << 16);
    m.writeT<std::uint64_t>(8, 42);
    EXPECT_EQ(m.compareSwap64(8, 41, 77), 42u);
    EXPECT_EQ(m.readT<std::uint64_t>(8), 42u);
}

TEST(PhysMem, FillSetsRange)
{
    PhysMem m(1 << 16);
    m.fill(100, 0xab, 300);
    for (std::uint64_t a = 100; a < 400; ++a) {
        std::uint8_t b;
        m.read(a, &b, 1);
        EXPECT_EQ(b, 0xab);
    }
    std::uint8_t before, after;
    m.read(99, &before, 1);
    m.read(400, &after, 1);
    EXPECT_EQ(before, 0);
    EXPECT_EQ(after, 0);
}

TEST(PhysMemDeathTest, OutOfRangePanics)
{
    PhysMem m(1024);
    std::uint64_t w = 0;
    EXPECT_DEATH(m.read(1024, &w, 1), "out of range");
    EXPECT_DEATH(m.write(1020, &w, 8), "out of range");
    PhysMem partial((1ull << 20) + 100);
    EXPECT_DEATH(partial.fill((1ull << 20) + 96, 0, 5), "out of range");
    EXPECT_DEATH(partial.readT<std::uint64_t>(~0ull - 3), "out of range");
}

} // namespace
