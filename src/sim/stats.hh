/**
 * @file
 * Lightweight statistics framework (gem5-inspired).
 *
 * Stats register themselves with a StatRegistry under hierarchical dotted
 * names ("node0.rmc.rgp.reqSent"). Benchmarks and tests read them back
 * programmatically; dump() renders a human-readable report.
 */

#ifndef SONUMA_SIM_STATS_HH
#define SONUMA_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sonuma::sim {

class StatRegistry;
class TimeSeries;

/**
 * Escape a string for embedding inside a JSON string literal: backslash,
 * double quote, and control characters (\uXXXX). Every string that
 * reaches an artifact must pass through here — raw labels with quotes or
 * backslashes would otherwise corrupt the JSON.
 */
std::string jsonEscape(const std::string &s);

/**
 * Monotonically increasing event counter. A bare value: its name and
 * description live in the StatRegistry entry, so counters embedded in
 * model objects take 8 bytes and keep hot fields together.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(StatRegistry &reg, std::string name, std::string desc);

    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Sampled distribution with mean/min/max and logarithmic buckets.
 * Used for latency distributions (e.g., remote read RTTs).
 */
class Histogram
{
  public:
    Histogram() = default;
    Histogram(StatRegistry &reg, std::string name, std::string desc);

    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Approximate p-th percentile from log2 buckets. Edge cases are
     * pinned down (and unit-tested): count==0 returns 0; p <= 0 is
     * clamped to the first sample; p >= 100 returns the true max (the
     * maxFallback) rather than a bucket midpoint below it.
     */
    double percentile(double p) const;

    /**
     * The same estimate over an externally pooled bucket array (e.g.
     * several histograms' buckets() summed element-wise); keeps pooled
     * percentiles in lockstep with this class's bucket mapping.
     * @param maxFallback returned when the target lies past all buckets
     */
    static double percentileFromBuckets(
        const std::vector<std::uint64_t> &buckets, std::uint64_t count,
        double p, double maxFallback);

    void reset();

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    // bucket 0: v < 1; bucket i >= 1: [2^(i-1), 2^i)
    std::vector<std::uint64_t> buckets_;
};

/**
 * Registry of all stats in one Simulation. Owns nothing: stats live in
 * their owning model objects and register pointers here.
 */
class StatRegistry
{
  public:
    void add(Counter *c, std::string name, std::string desc);
    void add(Histogram *h);
    void add(TimeSeries *ts);

    /** Find a counter by exact name; nullptr if absent. */
    const Counter *counter(const std::string &name) const;

    /** Find a histogram by exact name; nullptr if absent. */
    const Histogram *histogram(const std::string &name) const;

    /** Sum of all counters whose names match a prefix. */
    std::uint64_t sumByPrefix(const std::string &prefix) const;

    /** Render a report of all registered stats. */
    void dump(std::ostream &os) const;

    /** Reset every registered stat to zero. */
    void resetAll();

    //
    // Time-series sampling (off by default; see sim/time_series.hh).
    //

    /**
     * Turn sampling on with @p slots fixed ring slots per series. Must
     * be called before model construction: series registered afterwards
     * get their rings sized here at add() time; series registered while
     * sampling is off keep zero slots and sample() no-ops.
     */
    void enableSampling(std::size_t slots);

    bool samplingEnabled() const { return samplingSlots_ > 0; }

    /** Find a time series by exact name; nullptr if absent. */
    const TimeSeries *timeSeries(const std::string &name) const;

    /** Every registered series, in name order. */
    std::vector<const TimeSeries *> allTimeSeries() const;

    /** Record one sample in every registered series (sampler service). */
    void sampleAll(Tick now);

  private:
    struct CounterEntry
    {
        Counter *counter;
        std::string desc;
    };

    std::map<std::string, CounterEntry> counters_;
    std::map<std::string, Histogram *> histograms_;
    std::map<std::string, TimeSeries *> series_;
    std::size_t samplingSlots_ = 0;
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_STATS_HH
