/**
 * @file
 * Unit tests for sim::Callback: the 24-byte trivially-copyable capture
 * contract, move semantics and clearing.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/callback.hh"

namespace {

using sonuma::sim::Callback;

static_assert(sizeof(Callback) == 32);
static_assert(Callback::kInlineBytes == 24);

std::uint64_t g_sum;

TEST(Callback, DefaultIsEmpty)
{
    Callback cb;
    EXPECT_FALSE(static_cast<bool>(cb));
    Callback nullCb = nullptr;
    EXPECT_FALSE(static_cast<bool>(nullCb));
}

TEST(Callback, InvokesSmallCapture)
{
    int hits = 0;
    Callback cb = [&hits] { ++hits; };
    ASSERT_TRUE(static_cast<bool>(cb));
    cb();
    cb();
    EXPECT_EQ(hits, 2);
}

TEST(Callback, TwentyFourByteCaptureIsStoredAndInvoked)
{
    const std::array<std::uint64_t, 3> v{1, 2, 3};
    auto fn = [v] {
        for (auto x : v)
            g_sum += x;
    };
    static_assert(sizeof(fn) == Callback::kInlineBytes);
    g_sum = 0;
    Callback cb = fn;
    cb();
    EXPECT_EQ(g_sum, 6u);
}

TEST(Callback, RejectsOversizedAndNonTrivialCaptures)
{
    struct Bytes25
    {
        unsigned char b[25];
    };
    auto big = [s = Bytes25{}] { g_sum += s.b[0]; };
    static_assert(sizeof(big) == 25);
    static_assert(!std::is_constructible_v<Callback, decltype(big)>);

    auto shared = [p = std::make_shared<int>(1)] { g_sum += *p; };
    static_assert(sizeof(shared) <= Callback::kInlineBytes);
    static_assert(!std::is_constructible_v<Callback, decltype(shared)>);

    auto unique = [p = std::make_unique<int>(1)] { g_sum += *p; };
    static_assert(!std::is_constructible_v<Callback, decltype(unique)>);

    // A Callback is itself move-only, so it cannot be captured either.
    auto nested = [c = Callback{}]() mutable { c(); };
    static_assert(!std::is_constructible_v<Callback, decltype(nested)>);
    SUCCEED();
}

TEST(Callback, MoveLeavesSourceEmpty)
{
    int hits = 0;
    Callback a = [&hits] { ++hits; };
    Callback b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    Callback c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(Callback, ReassignReplacesTarget)
{
    int first = 0, second = 0;
    Callback cb = [&first] { ++first; };
    cb = [&second] { ++second; };
    cb();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
}

TEST(Callback, ResetAndNullptrClear)
{
    Callback cb = [] {};
    cb.reset();
    EXPECT_FALSE(static_cast<bool>(cb));
    cb = [] {};
    EXPECT_TRUE(static_cast<bool>(cb));
    cb = nullptr;
    EXPECT_FALSE(static_cast<bool>(cb));
}

} // namespace
