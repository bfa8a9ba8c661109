/**
 * @file
 * Statistics framework implementation.
 */

#include "sim/stats.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <utility>

#include "sim/time_series.hh"

namespace sonuma::sim {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

Counter::Counter(StatRegistry &reg, std::string name, std::string desc)
{
    reg.add(this, std::move(name), std::move(desc));
}

Histogram::Histogram(StatRegistry &reg, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    reg.add(this);
}

void
Histogram::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;

    std::size_t bucket = 0;
    if (v >= 1.0)
        bucket = static_cast<std::size_t>(std::log2(v)) + 1;
    if (buckets_.size() <= bucket)
        buckets_.resize(bucket + 1, 0);
    ++buckets_[bucket];
}

double
Histogram::percentile(double p) const
{
    return percentileFromBuckets(buckets_, count_, p, max_);
}

double
Histogram::percentileFromBuckets(const std::vector<std::uint64_t> &buckets,
                                 std::uint64_t count, double p,
                                 double maxFallback)
{
    if (count == 0)
        return 0.0;
    // p >= 100 asks for the maximum; the bucket scan would answer with
    // the last occupied bucket's midpoint, which undershoots the true
    // max the caller already tracks. Hand back the fallback directly.
    if (p >= 100.0)
        return maxFallback;
    auto target =
        static_cast<std::uint64_t>(std::ceil(p / 100.0 *
                                             static_cast<double>(count)));
    // p <= 0 would make target 0 and trivially "find" bucket 0 even when
    // it is empty (returning 0.5 for data that never saw a sub-1 sample).
    // Clamp to the first sample instead.
    target = std::max<std::uint64_t>(target, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= target) {
            // Midpoint of the log2 bucket as the estimate.
            if (i == 0)
                return 0.5;
            return 0.75 * std::pow(2.0, static_cast<double>(i));
        }
    }
    return maxFallback;
}

void
Histogram::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    buckets_.clear();
}

void
StatRegistry::add(Counter *c, std::string name, std::string desc)
{
    counters_[std::move(name)] = CounterEntry{c, std::move(desc)};
}

void
StatRegistry::add(Histogram *h)
{
    histograms_[h->name()] = h;
}

void
StatRegistry::add(TimeSeries *ts)
{
    series_[ts->name()] = ts;
    if (samplingSlots_ > 0)
        ts->reserve(samplingSlots_);
}

void
StatRegistry::enableSampling(std::size_t slots)
{
    samplingSlots_ = slots;
    for (auto &[name, ts] : series_)
        ts->reserve(slots);
}

const TimeSeries *
StatRegistry::timeSeries(const std::string &name) const
{
    auto it = series_.find(name);
    return it == series_.end() ? nullptr : it->second;
}

std::vector<const TimeSeries *>
StatRegistry::allTimeSeries() const
{
    std::vector<const TimeSeries *> out;
    out.reserve(series_.size());
    for (const auto &[name, ts] : series_)
        out.push_back(ts);
    return out;
}

void
StatRegistry::sampleAll(Tick now)
{
    // Hot path when sampling is on: plain map walk, no allocation.
    for (auto &[name, ts] : series_)
        ts->sample(now);
}

const Counter *
StatRegistry::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.counter;
}

const Histogram *
StatRegistry::histogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second;
}

std::uint64_t
StatRegistry::sumByPrefix(const std::string &prefix) const
{
    std::uint64_t total = 0;
    for (auto it = counters_.lower_bound(prefix); it != counters_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        total += it->second.counter->value();
    }
    return total;
}

void
StatRegistry::dump(std::ostream &os) const
{
    os << "---------- stats ----------\n";
    for (const auto &[name, c] : counters_) {
        os << std::left << std::setw(48) << name << ' '
           << c.counter->value();
        if (!c.desc.empty())
            os << "   # " << c.desc;
        os << '\n';
    }
    for (const auto &[name, h] : histograms_) {
        os << std::left << std::setw(48) << name << " n=" << h->count()
           << " mean=" << h->mean() << " min=" << h->min()
           << " max=" << h->max();
        if (!h->desc().empty())
            os << "   # " << h->desc();
        os << '\n';
    }
    os << "---------------------------\n";
}

void
StatRegistry::resetAll()
{
    for (auto &[name, c] : counters_)
        c.counter->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

} // namespace sonuma::sim
