/**
 * @file
 * sim::FlatMap unit tests: the open-addressed map behind the RRPP
 * dedup index. Correctness across insert/find/erase (backward shift,
 * including runs that wrap the table end) and growth, plus the
 * fixed-capacity contract under churn that it exists for. Zero
 * allocations under churn are asserted in sim_alloc_test, which counts
 * them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"

namespace {

using sonuma::sim::FlatMap;

TEST(FlatMap, InsertFindEraseBasics)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(42), nullptr);

    m.insert(42, 7);
    ASSERT_NE(m.find(42), nullptr);
    EXPECT_EQ(*m.find(42), 7);
    EXPECT_EQ(m.size(), 1u);

    // Insert on an existing key replaces the value, not the count.
    m.insert(42, 9);
    EXPECT_EQ(*m.find(42), 9);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.get(42), 9);

    EXPECT_TRUE(m.erase(42));
    EXPECT_FALSE(m.erase(42));
    EXPECT_EQ(m.find(42), nullptr);
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, GrowthAndEraseAgreeWithReferenceMap)
{
    FlatMap<std::uint64_t, std::uint64_t> m(4);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    // Cache-line-like keys (64-byte strides) with interleaved erases:
    // erases land inside probe runs and must shift their tails back.
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const std::uint64_t key = (i * 64) ^ ((i % 7) << 20);
        m.insert(key, i);
        ref[key] = i;
        if (i % 3 == 0) {
            const std::uint64_t victim = ((i / 2) * 64) ^
                                         (((i / 2) % 7) << 20);
            EXPECT_EQ(m.erase(victim), ref.erase(victim) == 1);
        }
    }
    EXPECT_EQ(m.size(), ref.size());
    for (const auto &[k, v] : ref) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), v);
    }
}

TEST(FlatMap, BackwardShiftKeepsEveryRunReachable)
{
    // A 16-slot table at its load limit: long, colliding probe runs
    // that wrap past the last slot. After every erase each remaining
    // key must still be found and each erased one must be gone.
    std::uint64_t seed = 1;
    auto next = [&seed] {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return seed >> 33;
    };
    for (int trial = 0; trial < 500; ++trial) {
        FlatMap<std::uint64_t, std::uint64_t> m;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        std::vector<std::uint64_t> keys;
        while (keys.size() < 10) {
            const std::uint64_t k = next() % 64;
            if (ref.emplace(k, k * 3).second) {
                m.insert(k, k * 3);
                keys.push_back(k);
            }
        }
        ASSERT_EQ(m.capacity(), 16u);
        while (!keys.empty()) {
            const std::size_t i = next() % keys.size();
            ASSERT_TRUE(m.erase(keys[i]));
            ref.erase(keys[i]);
            ASSERT_EQ(m.find(keys[i]), nullptr);
            keys[i] = keys.back();
            keys.pop_back();
            for (const auto &[k, v] : ref) {
                ASSERT_NE(m.find(k), nullptr) << "trial " << trial;
                ASSERT_EQ(*m.find(k), v);
            }
        }
        EXPECT_TRUE(m.empty());
    }
}

TEST(FlatMap, SteadyStateChurnDoesNotGrowStorage)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t i = 0; i < 64; ++i)
        m.insert(i * 64, 1);
    const std::size_t capacity = m.capacity();
    // Erase/insert churn over a fixed working set must stabilize: the
    // map's job is exactly to absorb this without touching the
    // allocator (counted in sim_alloc_test; here we pin the size and
    // capacity bookkeeping).
    for (int round = 0; round < 1000; ++round) {
        const std::uint64_t k = std::uint64_t(round % 64) * 64;
        EXPECT_TRUE(m.erase(k));
        m.insert(k, round);
        EXPECT_EQ(m.size(), 64u);
    }
    EXPECT_EQ(m.capacity(), capacity);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_NE(m.find(i * 64), nullptr);
}

} // namespace
