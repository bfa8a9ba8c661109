/**
 * @file
 * Observability pipeline tests: TimeSeries ring semantics, OBS artifact
 * rendering, sampler determinism (sampling on changes no model timing;
 * sampling off keeps cell artifacts byte-identical to the checked-in
 * exemplars), the JSON writer's number and layout rules, the JSON
 * string-escaping regression, histogram percentile edge cases, and the
 * zero-allocation guarantee of the steady-state sampling path. This
 * binary overrides global operator new/delete to count heap
 * allocations (same hook as tests/sim_alloc_test.cc).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>

#include "app/sweep.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/time_series.hh"

static std::uint64_t g_allocCount = 0;

// ASan keeps its own allocator; the counting override is skipped there
// (same rationale and guard as tests/session_stress_test.cc).
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SONUMA_ASAN_ACTIVE 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define SONUMA_ASAN_ACTIVE 1
#endif

#ifndef SONUMA_ASAN_ACTIVE
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    ++g_allocCount;
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
#endif // !SONUMA_ASAN_ACTIVE

namespace {

using namespace sonuma;

// ------------------------------------------------------------ TimeSeries

TEST(TimeSeries, GaugeRecordsProbeValues)
{
    sim::StatRegistry reg;
    reg.enableSampling(8);
    double probe = 0.0;
    sim::TimeSeries ts(reg, "t.gauge", "ops", "test gauge",
                       sim::TimeSeries::Kind::kGauge,
                       [&probe] { return probe; });

    probe = 3.0;
    reg.sampleAll(1000);
    probe = 7.0;
    reg.sampleAll(2000);

    ASSERT_EQ(ts.size(), 2u);
    EXPECT_EQ(ts.at(0).tick, 1000u);
    EXPECT_EQ(ts.at(0).value, 3.0);
    EXPECT_EQ(ts.at(1).tick, 2000u);
    EXPECT_EQ(ts.at(1).value, 7.0);
    EXPECT_EQ(ts.dropped(), 0u);
}

TEST(TimeSeries, RateRecordsDeltaPerTick)
{
    sim::StatRegistry reg;
    reg.enableSampling(8);
    double busyTicks = 0.0; // monotonic, like SerializedLink busy time
    sim::TimeSeries ts(reg, "t.rate", "frac", "test rate",
                       sim::TimeSeries::Kind::kRate,
                       [&busyTicks] { return busyTicks; });

    busyTicks = 500.0;
    ts.sample(1000); // (500 - 0) / (1000 - 0)
    busyTicks = 500.0;
    ts.sample(2000); // idle interval
    busyTicks = 1500.0;
    ts.sample(3000); // fully busy interval

    ASSERT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.at(0).value, 0.5);
    EXPECT_DOUBLE_EQ(ts.at(1).value, 0.0);
    EXPECT_DOUBLE_EQ(ts.at(2).value, 1.0);
}

TEST(TimeSeries, FullRingOverwritesOldestAndCountsDrops)
{
    sim::StatRegistry reg;
    reg.enableSampling(4);
    double probe = 0.0;
    sim::TimeSeries ts(reg, "t.wrap", "ops", "",
                       sim::TimeSeries::Kind::kGauge,
                       [&probe] { return probe; });

    for (int i = 1; i <= 6; ++i) {
        probe = i;
        ts.sample(static_cast<sim::Tick>(i) * 100);
    }

    ASSERT_EQ(ts.size(), 4u);
    EXPECT_EQ(ts.dropped(), 2u);
    // Oldest surviving sample is the 3rd one.
    EXPECT_EQ(ts.at(0).tick, 300u);
    EXPECT_EQ(ts.at(0).value, 3.0);
    EXPECT_EQ(ts.at(3).tick, 600u);
    EXPECT_EQ(ts.at(3).value, 6.0);
}

TEST(TimeSeries, SamplingOffIsANoOp)
{
    sim::StatRegistry reg; // enableSampling never called
    bool probed = false;
    sim::TimeSeries ts(reg, "t.off", "ops", "",
                       sim::TimeSeries::Kind::kGauge, [&probed] {
                           probed = true;
                           return 1.0;
                       });
    EXPECT_FALSE(reg.samplingEnabled());
    reg.sampleAll(1000);
    EXPECT_EQ(ts.size(), 0u);
    EXPECT_FALSE(probed) << "disabled series must not invoke the probe";
}

TEST(TimeSeries, RegistryFindsSeriesByName)
{
    sim::StatRegistry reg;
    reg.enableSampling(4);
    sim::TimeSeries ts(reg, "a.b.c", "ops", "",
                       sim::TimeSeries::Kind::kGauge, [] { return 0.0; });
    EXPECT_EQ(reg.timeSeries("a.b.c"), &ts);
    EXPECT_EQ(reg.timeSeries("a.b.d"), nullptr);
    EXPECT_EQ(reg.allTimeSeries().size(), 1u);
}

// --------------------------------------------------------- OBS rendering

TEST(ObsJson, SchemaFieldsAndZeroSeriesElision)
{
    sim::StatRegistry reg;
    reg.enableSampling(8);
    double busy = 0.0;
    sim::TimeSeries live(reg, "t.live", "ops", "",
                         sim::TimeSeries::Kind::kGauge,
                         [&busy] { return busy; });
    sim::TimeSeries idle(reg, "t.idle", "ops", "",
                         sim::TimeSeries::Kind::kGauge, [] { return 0.0; });

    busy = 2.0;
    reg.sampleAll(2500); // 2500 ticks = 2 ns (integer ns timestamps)
    busy = 2.5;
    reg.sampleAll(5000);

    const std::string json = sim::renderObsJson(reg, "cell_a", 100);
    EXPECT_NE(json.find("\"bench\": \"obs\""), std::string::npos);
    EXPECT_NE(json.find("\"schema\": " +
                        std::to_string(sim::kArtifactSchema) + ","),
              std::string::npos);
    EXPECT_NE(json.find("\"label\": \"cell_a\""), std::string::npos);
    EXPECT_NE(json.find("\"period_ns\": 100"), std::string::npos);
    // The all-zero series is elided; the live one is kept.
    EXPECT_NE(json.find("\"series_elided\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"series_count\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"t.live\""), std::string::npos);
    EXPECT_EQ(json.find("t.idle"), std::string::npos);
    // Tick-to-ns timestamps; integral values render as integers.
    EXPECT_NE(json.find("[2, 2]"), std::string::npos);
    EXPECT_NE(json.find("[5, 2.5]"), std::string::npos);
}

// ----------------------------------------------------------- jsonEscape

TEST(JsonEscape, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(sim::jsonEscape("plain"), "plain");
    EXPECT_EQ(sim::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(sim::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(sim::jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(sim::jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

// ----------------------------------------------------------- JsonWriter

/** How the writer spells one double. */
std::string
numberText(double v)
{
    sim::JsonWriter w;
    w.beginArray().value(v).endArray();
    const std::string &s = w.str(); // "[\n  <v>\n]\n"
    return s.substr(4, s.size() - 7);
}

TEST(JsonWriter, NestingCommasAndLayout)
{
    sim::JsonWriter w;
    w.beginObject().field("a", 1).key("rows").beginArray();
    w.beginObject().field("x", 1).key("xs").beginArray();
    w.value(1).value(2).endArray().endObject();
    w.beginObject().endObject();
    w.endArray().key("empty").beginArray().endArray().endObject();
    // The outer two levels break one member per line; deeper stays inline.
    EXPECT_EQ(w.str(), "{\n"
                       "  \"a\": 1,\n"
                       "  \"rows\": [\n"
                       "    {\"x\": 1, \"xs\": [1, 2]},\n"
                       "    {}\n"
                       "  ],\n"
                       "  \"empty\": []\n"
                       "}\n");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    sim::JsonWriter w;
    w.beginObject().field("k\"ey", "va\\l\n").endObject();
    EXPECT_EQ(w.str(), "{\n  \"k\\\"ey\": \"va\\\\l\\n\"\n}\n");
}

TEST(JsonWriter, ArtifactHeaderCarriesKindAndSchema)
{
    sim::JsonWriter w;
    w.beginArtifact("sweep").endObject();
    EXPECT_EQ(w.str(), "{\n  \"bench\": \"sweep\",\n  \"schema\": " +
                           std::to_string(sim::kArtifactSchema) + "\n}\n");
}

TEST(JsonWriter, IntegralDoublesPrintAsIntegers)
{
    EXPECT_EQ(numberText(524288.0), "524288");
    EXPECT_EQ(numberText(-3.0), "-3");
    EXPECT_EQ(numberText(0.0), "0");
    // Below 2^53 every integral double prints as an integer; from 2^53
    // up the shortest round-trip form applies.
    EXPECT_EQ(numberText(0x1p53 - 1), "9007199254740991");
    EXPECT_EQ(numberText(1e20), "1e+20");
}

TEST(JsonWriter, FractionsRoundTripBitExactly)
{
    // 0.1 has no exact binary form; the others are p99-like pooled
    // latencies and a tiny rate.
    for (const double v : {0.1, 1536.0000000000002, 3398.3041666666667,
                           1e-7, 123456.789}) {
        const std::string text = numberText(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
    EXPECT_EQ(numberText(0.1), "0.1");
}

TEST(JsonWriter, IntegersPrintExactly)
{
    sim::JsonWriter w;
    w.beginArray()
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::numeric_limits<std::int64_t>::min())
        .value(std::uint32_t{7})
        .endArray();
    EXPECT_EQ(w.str(), "[\n  18446744073709551615,\n"
                       "  -9223372036854775808,\n  7\n]\n");
}

// ------------------------------------------------- percentile edge cases

TEST(HistogramPercentile, EmptyHistogramReturnsZero)
{
    sim::Histogram h;
    EXPECT_EQ(h.percentile(50), 0.0);
    EXPECT_EQ(sim::Histogram::percentileFromBuckets({}, 0, 50, 123.0),
              0.0);
}

TEST(HistogramPercentile, SingleSampleIsItsOwnDistribution)
{
    sim::Histogram h;
    h.sample(100.0); // bucket 7: [64, 128)
    // Any in-range p lands in the only occupied bucket (midpoint 96);
    // p >= 100 returns the tracked max, not a bucket midpoint.
    EXPECT_DOUBLE_EQ(h.percentile(50), 96.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(200), 100.0);
}

TEST(HistogramPercentile, NonPositivePClampsToFirstSample)
{
    sim::Histogram h;
    h.sample(100.0);
    // Regression: p <= 0 used to make the target 0 and trivially match
    // the empty bucket 0, answering 0.5 for data that never saw a
    // sub-1 sample.
    EXPECT_DOUBLE_EQ(h.percentile(0), 96.0);
    EXPECT_DOUBLE_EQ(h.percentile(-5), 96.0);
}

TEST(HistogramPercentile, PooledMatchesInstanceAcrossP)
{
    sim::Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));
    for (const double p : {-1.0, 0.0, 1.0, 50.0, 95.0, 99.0, 100.0, 150.0}) {
        EXPECT_DOUBLE_EQ(sim::Histogram::percentileFromBuckets(
                             h.buckets(), h.count(), p, h.max()),
                         h.percentile(p))
            << "pooled and instance percentiles diverged at p=" << p;
    }
}

// ----------------------------------------- cell JSON escaping regression

TEST(SweepJson, StringFieldsAreEscaped)
{
    app::SweepCellResult cell;
    cell.workload = "uni\"form\\x";
    cell.nodes = 4;
    cell.requestBytes = 64;
    cell.qpDepth = 16;
    cell.faultScenario = "node-kill@10us\"+100us\\";
    cell.extra.emplace_back("we\"ird\\key", 1.0);

    const std::string s = cell.json();

    EXPECT_NE(s.find("\"workload\": \"uni\\\"form\\\\x\""),
              std::string::npos)
        << s;
    EXPECT_NE(s.find("\"fault_scenario\": "
                     "\"node-kill@10us\\\"+100us\\\\\""),
              std::string::npos)
        << s;
    EXPECT_NE(s.find("\"we\\\"ird\\\\key\": 1"), std::string::npos) << s;
    // No raw (unescaped) quote may survive inside a string value.
    EXPECT_EQ(s.find("uni\"form"), std::string::npos) << s;
}

// --------------------------------------------------- sweep-cell sampling

app::SweepConfig
smallCellConfig()
{
    app::SweepConfig cfg;
    cfg.opsPerNode = 24;
    cfg.echo = false;
    return cfg;
}

/** A cell's JSON with the host_seconds wall-clock field stripped. */
std::string
jsonSansHostSeconds(const app::SweepCellResult &cell)
{
    const std::string s = cell.json();
    return s.substr(0, s.find("\"host_seconds\""));
}

TEST(ObsSampling, SidecarIsDeterministicAcrossSameSeedRuns)
{
    auto cfg = smallCellConfig();
    cfg.obsPeriodNs = 200;
    app::SweepDriver d1(cfg);
    app::SweepDriver d2(cfg);
    const auto a = d1.runCell(8, node::Topology::kTorus, 64, 16);
    const auto b = d2.runCell(8, node::Topology::kTorus, 64, 16);

    ASSERT_FALSE(a.obsJson.empty());
    EXPECT_EQ(a.obsJson, b.obsJson)
        << "same-seed OBS sidecars must be byte-identical";
    EXPECT_NE(a.obsJson.find("\"bench\": \"obs\""), std::string::npos);
    // The instrumented stack produced at least one live series.
    EXPECT_EQ(a.obsJson.find("\"series_count\": 0"), std::string::npos);
}

TEST(ObsSampling, SamplingDoesNotPerturbTheCellArtifact)
{
    auto off = smallCellConfig();
    auto on = smallCellConfig();
    on.obsPeriodNs = 200;
    const auto cellOff =
        app::SweepDriver(off).runCell(8, node::Topology::kTorus, 64, 16);
    const auto cellOn =
        app::SweepDriver(on).runCell(8, node::Topology::kTorus, 64, 16);

    EXPECT_TRUE(cellOff.obsJson.empty());
    EXPECT_EQ(jsonSansHostSeconds(cellOff), jsonSansHostSeconds(cellOn))
        << "the read-only sampler must not change model timing";
}

TEST(ObsSampling, SamplingOffCellMatchesCheckedInExemplar)
{
    // Same cell the full bench_sweep run produces (defaults: 128
    // ops/node, seed 1), byte-compared against the checked-in artifact
    // modulo the host_seconds wall-clock tail.
    app::SweepConfig cfg;
    cfg.echo = false;
    const auto cell =
        app::SweepDriver(cfg).runCell(8, node::Topology::kTorus, 64, 16);

    const std::string path = std::string(SONUMA_REPO_ROOT) +
                             "/BENCH_sweep/SWEEP_" + cell.label() +
                             ".json";
    std::ifstream f(path);
    ASSERT_TRUE(f) << "missing checked-in exemplar " << path;
    std::ostringstream ref;
    ref << f.rdbuf();
    const std::string refStr = ref.str();

    EXPECT_EQ(jsonSansHostSeconds(cell),
              refStr.substr(0, refStr.find("\"host_seconds\"")))
        << "sampling-off cell drifted from " << path;
}

// ------------------------------------------------------------ zero-alloc

TEST(ObsAlloc, SteadyStateSamplingIsAllocationFree)
{
#ifdef SONUMA_ASAN_ACTIVE
    GTEST_SKIP() << "allocation counting needs the operator new override, "
                    "which is disabled under AddressSanitizer";
#endif
    sim::StatRegistry reg;
    reg.enableSampling(256);

    // A representative probe population: gauges and rates, as the
    // fabric/RMC/session instrumentation registers them.
    double raw[16] = {};
    std::vector<std::unique_ptr<sim::TimeSeries>> series;
    for (int i = 0; i < 16; ++i) {
        double *cell = &raw[i];
        series.push_back(std::make_unique<sim::TimeSeries>(
            reg, "t.s" + std::to_string(i), "ops", "",
            i % 2 ? sim::TimeSeries::Kind::kRate
                  : sim::TimeSeries::Kind::kGauge,
            [cell] { return *cell; }));
    }

    // Warm-up (rings are preallocated; this exercises the full path).
    for (sim::Tick t = 1; t <= 8; ++t) {
        for (auto &r : raw)
            r += 1.0;
        reg.sampleAll(t * 1000);
    }

    const std::uint64_t a0 = g_allocCount;
    for (sim::Tick t = 9; t <= 10'008; ++t) {
        for (auto &r : raw)
            r += 1.0;
        reg.sampleAll(t * 1000);
    }
    EXPECT_EQ(g_allocCount - a0, 0u)
        << "steady-state sampling must not allocate (10k sweeps across "
           "16 series, rings wrapping)";
    EXPECT_GT(series[0]->dropped(), 0u) << "rings wrapped during window";
}

} // namespace
