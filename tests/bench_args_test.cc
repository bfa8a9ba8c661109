/**
 * @file
 * Tests for the strict bench flag parser: unknown --flags are rejected
 * with a did-you-mean suggestion and the valid-flag list, so a typo'd
 * sweep parameter can never silently fall back to its default and
 * poison a measurement.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "bench/common.hh"

namespace {

using sonuma::bench::Args;

TEST(BenchArgs, KnownFlagsValidate)
{
    std::string err;
    EXPECT_TRUE(Args::validate({"--platform=hw", "--quick"},
                               {"platform", "quick"}, &err));
    EXPECT_TRUE(err.empty());
}

TEST(BenchArgs, PositionalArgumentsAreIgnored)
{
    std::string err;
    EXPECT_TRUE(Args::validate({"outfile.json"}, {"out"}, &err));
}

TEST(BenchArgs, UnknownFlagRejectedWithSuggestion)
{
    std::string err;
    EXPECT_FALSE(Args::validate({"--platfrom=hw"},
                                {"platform", "quick"}, &err));
    EXPECT_NE(err.find("unknown flag --platfrom"), std::string::npos)
        << err;
    EXPECT_NE(err.find("did you mean --platform"), std::string::npos)
        << err;
    EXPECT_NE(err.find("--quick"), std::string::npos) << err;
}

TEST(BenchArgs, UnknownFlagWithoutCloseMatchListsValidFlags)
{
    std::string err;
    EXPECT_FALSE(
        Args::validate({"--zzzzzzz"}, {"platform", "quick"}, &err));
    EXPECT_NE(err.find("unknown flag --zzzzzzz"), std::string::npos);
    EXPECT_EQ(err.find("did you mean"), std::string::npos) << err;
    EXPECT_NE(err.find("valid flags"), std::string::npos) << err;
}

TEST(BenchArgs, ValueFormsParse)
{
    const char *argv[] = {"bench", "--vertices=4096", "--quick"};
    Args args(3, const_cast<char **>(argv), {"vertices", "quick"});
    EXPECT_EQ(args.getU64("vertices", 1), 4096u);
    EXPECT_TRUE(args.has("quick"));
    EXPECT_FALSE(args.has("platform"));
    EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(BenchArgs, UnsignedValuesParseStrictly)
{
    std::uint32_t v32 = 7;
    ASSERT_TRUE(Args::parseUnsigned("4294967295", &v32));
    EXPECT_EQ(v32, 4294967295u);
    std::uint64_t v64 = 7;
    ASSERT_TRUE(Args::parseUnsigned("18446744073709551615", &v64));
    EXPECT_EQ(v64, UINT64_MAX);
    // Past the type's range, e.g. --max-attempts=4294967299, which a
    // cast to uint32 would turn into 3.
    v32 = 7;
    EXPECT_FALSE(Args::parseUnsigned("4294967296", &v32));
    EXPECT_FALSE(Args::parseUnsigned("4294967299", &v32));
    EXPECT_FALSE(Args::parseUnsigned("18446744073709551616", &v64));
    // Signs, whitespace and non-digits, e.g. --ops=abc, which stoull
    // threw on, and --max-attempts=-1, which it wrapped to 2^64-1.
    for (const char *bad : {"abc", "-1", "+5", " 5", "5 ", "0x10", "1e3",
                            ""})
        EXPECT_FALSE(Args::parseUnsigned(bad, &v32)) << bad;
    EXPECT_EQ(v32, 7u) << "a rejected value must not be stored";
}

TEST(BenchArgs, BadNumericValueExitsNamingTheFlag)
{
    const char *argv[] = {"bench", "--ops=abc", "--max-attempts=4294967299"};
    Args args(3, const_cast<char **>(argv), {"ops", "max-attempts"});
    EXPECT_EXIT(args.getU64("ops", 1), ::testing::ExitedWithCode(2),
                "--ops: 'abc' is not a uint64");
    EXPECT_EXIT(args.getU32("max-attempts", 4),
                ::testing::ExitedWithCode(2),
                "--max-attempts: '4294967299' is not a uint32");
    // The same value fits a uint64 flag.
    EXPECT_EQ(args.getU64("max-attempts", 4), 4294967299u);
}

TEST(BenchArgs, TypoInValueFlagIsCaught)
{
    // The exact failure mode from the issue: a typo'd sweep parameter.
    std::string err;
    EXPECT_FALSE(Args::validate(
        {"--vertcies=8192"},
        {"vertices", "degree", "supersteps"}, &err));
    EXPECT_NE(err.find("did you mean --vertices"), std::string::npos)
        << err;
}

TEST(BenchArgs, DegradedModeFlagsValidate)
{
    std::string err;
    EXPECT_TRUE(Args::validate(
        {"--faults=node-kill@50us+100us", "--routing=adaptive",
         "--max-attempts=6"},
        {"faults", "routing", "max-attempts"}, &err))
        << err;
}

TEST(BenchArgs, TypodDegradedFlagsGetDidYouMean)
{
    const std::vector<std::string> known = {"faults", "routing",
                                           "max-attempts"};
    std::string err;
    EXPECT_FALSE(Args::validate({"--fault=node-kill@50us"}, known, &err));
    EXPECT_NE(err.find("did you mean --faults"), std::string::npos)
        << err;
    EXPECT_FALSE(Args::validate({"--routng=adaptive"}, known, &err));
    EXPECT_NE(err.find("did you mean --routing"), std::string::npos)
        << err;
}

TEST(BenchArgs, TopoDimsParse)
{
    std::vector<std::uint32_t> dims;
    std::string err;
    ASSERT_TRUE(Args::parseDims("8x8x8", &dims, &err)) << err;
    EXPECT_EQ(dims, (std::vector<std::uint32_t>{8, 8, 8}));
    ASSERT_TRUE(Args::parseDims("16x4", &dims, &err)) << err;
    EXPECT_EQ(dims, (std::vector<std::uint32_t>{16, 4}));
    ASSERT_TRUE(Args::parseDims("512", &dims, &err)) << err;
    EXPECT_EQ(dims, (std::vector<std::uint32_t>{512}));
}

TEST(BenchArgs, MalformedTopoAxesGetDidYouMean)
{
    std::vector<std::uint32_t> dims;
    std::string err;
    // Wrong separators: the canonical spelling is suggested.
    EXPECT_FALSE(Args::parseDims("8,8,8", &dims, &err));
    EXPECT_NE(err.find("did you mean 8x8x8"), std::string::npos) << err;
    EXPECT_FALSE(Args::parseDims("8x8o8", &dims, &err));
    EXPECT_NE(err.find("did you mean 8x8x8"), std::string::npos) << err;
    // Named offending axis.
    EXPECT_FALSE(Args::parseDims("8xax8", &dims, &err));
    EXPECT_NE(err.find("'a'"), std::string::npos) << err;
    // Trailing separator, zero radix, empty string: all rejected.
    EXPECT_FALSE(Args::parseDims("8x8x", &dims, &err));
    EXPECT_FALSE(Args::parseDims("8x0x8", &dims, &err));
    EXPECT_FALSE(Args::parseDims("", &dims, &err));
}

TEST(BenchArgs, GetDimsReturnsEmptyWhenAbsent)
{
    const char *argv[] = {"bench", "--quick"};
    Args args(2, const_cast<char **>(argv), {"quick", "topo"});
    EXPECT_TRUE(args.getDims("topo").empty());
}

} // namespace
