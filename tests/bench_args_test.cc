/**
 * @file
 * Tests for the strict bench flag parser: unknown --flags are rejected
 * with a did-you-mean suggestion and the valid-flag list, so a typo'd
 * sweep parameter can never silently fall back to its default and
 * poison a measurement.
 */

#include <gtest/gtest.h>

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
         "--retries=4", "--max-attempts=6"},
        {"faults", "routing", "retries", "max-attempts"}, &err))
        << err;
}

TEST(BenchArgs, TypodDegradedFlagsGetDidYouMean)
{
    const std::vector<std::string> known = {"faults", "routing",
                                           "retries",
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
