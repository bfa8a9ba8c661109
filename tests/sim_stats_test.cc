/**
 * @file
 * Tests for the stats framework and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "sim/rng.hh"
#include "sim/stats.hh"

namespace {

using namespace sonuma::sim;

TEST(Stats, CounterRegistersAndCounts)
{
    StatRegistry reg;
    Counter c(reg, "node0.rmc.reqs", "requests");
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    ASSERT_NE(reg.counter("node0.rmc.reqs"), nullptr);
    EXPECT_EQ(reg.counter("node0.rmc.reqs")->value(), 10u);
    EXPECT_EQ(reg.counter("nonexistent"), nullptr);
}

TEST(Stats, SumByPrefixAggregates)
{
    StatRegistry reg;
    Counter a(reg, "node0.l1.hits", "");
    Counter b(reg, "node0.l1.misses", "");
    Counter c(reg, "node1.l1.hits", "");
    a.inc(5);
    b.inc(7);
    c.inc(100);
    EXPECT_EQ(reg.sumByPrefix("node0.l1."), 12u);
    EXPECT_EQ(reg.sumByPrefix("node1."), 100u);
    EXPECT_EQ(reg.sumByPrefix("node2."), 0u);
}

TEST(Stats, HistogramMoments)
{
    StatRegistry reg;
    Histogram h(reg, "lat", "latency");
    for (double v : {1.0, 2.0, 3.0, 4.0, 10.0})
        h.sample(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(Stats, HistogramPercentileIsMonotonic)
{
    StatRegistry reg;
    Histogram h(reg, "lat", "");
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_LE(h.percentile(50), h.percentile(90));
    EXPECT_LE(h.percentile(90), h.percentile(99));
    EXPECT_GE(h.percentile(99), 256.0); // true p99 is 990
}

TEST(Stats, ResetAllClears)
{
    StatRegistry reg;
    Counter c(reg, "c", "");
    Histogram h(reg, "h", "");
    c.inc(3);
    h.sample(5);
    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// Counters are embedded in every model object: names and descriptions
// live in the registry, so a counter is its value and nothing else.
static_assert(sizeof(Counter) == sizeof(std::uint64_t));

TEST(Stats, DumpContainsNamesAndValues)
{
    StatRegistry reg;
    Counter c(reg, "some.counter", "a counter");
    Counter d(reg, "other.counter", "another counter");
    Counter bare(reg, "bare.counter", "");
    c.inc(17);
    d.inc(4);
    std::ostringstream os;
    reg.dump(os);
    const std::string out = os.str();
    for (const char *name : {"some.counter", "other.counter",
                             "bare.counter"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
    EXPECT_NE(out.find("17   # a counter\n"), std::string::npos) << out;
    EXPECT_NE(out.find("4   # another counter\n"), std::string::npos)
        << out;
    // An empty description prints no comment marker.
    const std::size_t bareAt = out.find("bare.counter");
    const std::string bareLine =
        out.substr(bareAt, out.find('\n', bareAt) - bareAt);
    EXPECT_EQ(bareLine.find('#'), std::string::npos) << bareLine;
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic)
{
    Rng a(42);
    Rng fork1 = a.fork();
    Rng b(42);
    Rng fork2 = b.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(fork1.next(), fork2.next());
}

} // namespace
