/**
 * @file
 * Fixed-slot, zero-allocation time-series sampler (NUMAscope-style).
 *
 * A TimeSeries wraps a probe callback (a gauge read or a monotonic raw
 * counter) and a preallocated ring of (tick, value) slots. A periodic
 * sampler service (Cluster) calls StatRegistry::sampleAll() on simulated
 * time; each series records one slot per period. Slots are allocated
 * once, at registration, so the steady-state sampling path performs no
 * heap allocation — the same discipline as the event and message hot
 * paths (see tests/sim_alloc_test.cc and the observability test).
 *
 * Sampling is off by default (StatRegistry::samplingEnabled() == false):
 * rings stay empty, sample() is a no-op, and every checked-in artifact
 * stays byte-identical. docs/observability.md catalogs the series.
 */

#ifndef SONUMA_SIM_TIME_SERIES_HH
#define SONUMA_SIM_TIME_SERIES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace sonuma::sim {

class TimeSeries
{
  public:
    /** How the probe value turns into a sample. */
    enum class Kind : std::uint8_t
    {
        kGauge, //!< record the probe value as-is (occupancy, depth)
        kRate,  //!< record delta(probe) / delta(tick) (utilization)
    };

    using SampleFn = std::function<double()>;

    struct Sample
    {
        Tick tick = 0;
        double value = 0.0;
    };

    /** Self-registers; the ring is sized by the registry (zero slots
     *  when sampling is disabled, so sample() no-ops). */
    TimeSeries(StatRegistry &reg, std::string name, std::string unit,
               std::string desc, Kind kind, SampleFn fn);

    /** Record one sample at @p now. No-op when the ring has no slots.
     *  Never allocates: a full ring overwrites the oldest slot and
     *  counts the loss in dropped(). */
    void sample(Tick now);

    /** Size the ring to @p slots fixed slots (registration time only). */
    void reserve(std::size_t slots);

    const std::string &name() const { return name_; }
    const std::string &unit() const { return unit_; }
    const std::string &desc() const { return desc_; }
    Kind kind() const { return kind_; }

    /** Number of samples currently held (<= slot capacity). */
    std::size_t size() const { return count_; }

    /** Samples overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** The i-th held sample, oldest first. @pre i < size() */
    const Sample &at(std::size_t i) const
    {
        const std::size_t cap = ring_.size();
        return ring_[(head_ + cap - count_ + i) % cap];
    }

  private:
    std::string name_;
    std::string unit_;
    std::string desc_;
    Kind kind_;
    SampleFn fn_;

    std::vector<Sample> ring_; //!< fixed slots; sized once by reserve()
    std::size_t head_ = 0;     //!< next slot to write
    std::size_t count_ = 0;    //!< held samples
    std::uint64_t dropped_ = 0;

    // kRate state: previous raw probe value and its tick.
    double lastRaw_ = 0.0;
    Tick lastTick_ = 0;
};

/**
 * Render every registered series as an OBS artifact (schema 2):
 * {"bench": "obs", "label": ..., "period_ns": N, "series": [...]}.
 * Series whose samples are all zero are elided (counted in
 * "series_elided") to keep artifacts readable at fleet scale.
 */
std::string renderObsJson(const StatRegistry &reg, const std::string &label,
                          std::uint64_t periodNs);

} // namespace sonuma::sim

#endif // SONUMA_SIM_TIME_SERIES_HH
