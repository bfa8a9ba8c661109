/**
 * @file
 * Time-series sampler implementation and OBS artifact rendering.
 */

#include "sim/time_series.hh"

#include "sim/json.hh"

namespace sonuma::sim {

TimeSeries::TimeSeries(StatRegistry &reg, std::string name, std::string unit,
                       std::string desc, Kind kind, SampleFn fn)
    : name_(std::move(name)), unit_(std::move(unit)),
      desc_(std::move(desc)), kind_(kind), fn_(std::move(fn))
{
    reg.add(this);
}

void
TimeSeries::reserve(std::size_t slots)
{
    ring_.assign(slots, Sample{});
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
}

void
TimeSeries::sample(Tick now)
{
    if (ring_.empty())
        return; // sampling disabled: zero overhead beyond this branch

    const double raw = fn_();
    double v = raw;
    if (kind_ == Kind::kRate) {
        const Tick dt = now - lastTick_;
        v = dt ? (raw - lastRaw_) / static_cast<double>(dt) : 0.0;
        lastRaw_ = raw;
        lastTick_ = now;
    }

    ring_[head_] = Sample{now, v};
    head_ = (head_ + 1) % ring_.size();
    if (count_ < ring_.size())
        ++count_;
    else
        ++dropped_;
}

std::string
renderObsJson(const StatRegistry &reg, const std::string &label,
              std::uint64_t periodNs)
{
    // Elide all-zero series: an idle link's flat line carries no signal
    // and a 512-node torus has thousands of them.
    std::size_t elided = 0;
    std::vector<const TimeSeries *> live;
    for (const TimeSeries *ts : reg.allTimeSeries()) {
        bool allZero = true;
        for (std::size_t i = 0; i < ts->size() && allZero; ++i)
            allZero = ts->at(i).value == 0.0;
        if (allZero)
            ++elided;
        else
            live.push_back(ts);
    }

    JsonWriter w;
    w.beginArtifact("obs")
        .field("label", label)
        .field("period_ns", periodNs)
        .field("series_elided", elided);
    w.key("series").beginArray();
    for (const TimeSeries *ts : live) {
        w.beginObject()
            .field("name", ts->name())
            .field("unit", ts->unit())
            .field("dropped", ts->dropped());
        w.key("samples").beginArray();
        for (std::size_t i = 0; i < ts->size(); ++i) {
            const TimeSeries::Sample &s = ts->at(i);
            w.beginArray().value(s.tick / kTicksPerNs).value(s.value)
                .endArray();
        }
        w.endArray().endObject();
    }
    w.endArray().field("series_count", live.size()).endObject();
    return w.str();
}

} // namespace sonuma::sim
