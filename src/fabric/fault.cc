/**
 * @file
 * Fault plan construction, scenario-spec parsing, and injection.
 */

#include "fabric/fault.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/did_you_mean.hh"

namespace sonuma::fab {

namespace {

/** Parse "<float><ns|us|ms>" into ticks. */
bool
parseTime(const std::string &s, sim::Tick *out, std::string *error)
{
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(s, &pos);
    } catch (const std::exception &) {
        pos = 0;
    }
    if (pos == 0 || v < 0.0) {
        *error = "malformed time '" + s + "' (expected e.g. 50us, 1.5ms)";
        return false;
    }
    const std::string unit = s.substr(pos);
    if (unit == "ns")
        *out = sim::nsToTicks(v);
    else if (unit == "us")
        *out = sim::usToTicks(v);
    else if (unit == "ms")
        *out = sim::usToTicks(v * 1000.0);
    else {
        *error = "time '" + s + "' needs a unit suffix (ns, us or ms)";
        return false;
    }
    return true;
}

bool
parseNode(const std::string &s, sim::NodeId *out, std::string *error)
{
    std::size_t pos = 0;
    unsigned long v = 0;
    try {
        v = std::stoul(s, &pos);
    } catch (const std::exception &) {
        pos = 0;
    }
    if (pos != s.size() || s.empty()) {
        *error = "malformed node id '" + s + "'";
        return false;
    }
    *out = static_cast<sim::NodeId>(v);
    return true;
}

/** Parse "A-B" into a directed link. */
bool
parseLink(const std::string &s, sim::NodeId *a, sim::NodeId *b,
          std::string *error)
{
    const std::size_t dash = s.find('-');
    if (dash == std::string::npos) {
        *error = "malformed link '" + s + "' (expected <from>-<to>, e.g. 0-1)";
        return false;
    }
    return parseNode(s.substr(0, dash), a, error) &&
           parseNode(s.substr(dash + 1), b, error);
}

const char *
kindName(FaultEventKind k)
{
    switch (k) {
      case FaultEventKind::kNodeKill: return "node-kill";
      case FaultEventKind::kNodeRecover: return "node-recover";
      case FaultEventKind::kLinkKill: return "link-kill";
      case FaultEventKind::kLinkRecover: return "link-recover";
      case FaultEventKind::kDropStart: return "drop-start";
      case FaultEventKind::kDropEnd: return "drop-end";
    }
    return "?";
}

bool
isLinkEvent(FaultEventKind k)
{
    return k == FaultEventKind::kLinkKill ||
           k == FaultEventKind::kLinkRecover ||
           k == FaultEventKind::kDropStart || k == FaultEventKind::kDropEnd;
}

} // namespace

FaultPlan &
FaultPlan::killNode(sim::Tick at, sim::NodeId n)
{
    events_.push_back({at, FaultEventKind::kNodeKill, n, n});
    return *this;
}

FaultPlan &
FaultPlan::recoverNode(sim::Tick at, sim::NodeId n)
{
    events_.push_back({at, FaultEventKind::kNodeRecover, n, n});
    return *this;
}

FaultPlan &
FaultPlan::killLink(sim::Tick at, sim::NodeId from, sim::NodeId to)
{
    events_.push_back({at, FaultEventKind::kLinkKill, from, to});
    return *this;
}

FaultPlan &
FaultPlan::recoverLink(sim::Tick at, sim::NodeId from, sim::NodeId to)
{
    events_.push_back({at, FaultEventKind::kLinkRecover, from, to});
    return *this;
}

FaultPlan &
FaultPlan::dropWindow(sim::Tick start, sim::Tick end, sim::NodeId from,
                      sim::NodeId to)
{
    events_.push_back({start, FaultEventKind::kDropStart, from, to});
    events_.push_back({end, FaultEventKind::kDropEnd, from, to});
    return *this;
}

FaultPlan &
FaultPlan::flapLink(sim::Tick start, sim::Tick period, std::uint32_t cycles,
                    sim::NodeId from, sim::NodeId to)
{
    for (std::uint32_t i = 0; i < cycles; ++i) {
        const sim::Tick t = start + i * period;
        killLink(t, from, to);
        recoverLink(t + period / 2, from, to);
    }
    return *this;
}

std::vector<FaultEvent>
FaultPlan::sorted() const
{
    std::vector<FaultEvent> out = events_;
    std::stable_sort(out.begin(), out.end(),
                     [](const FaultEvent &x, const FaultEvent &y) {
                         return x.at < y.at;
                     });
    return out;
}

void
FaultPlan::validate(std::size_t nodeCount) const
{
    for (const auto &e : events_) {
        if (e.a >= nodeCount || e.b >= nodeCount)
            throw std::invalid_argument(
                std::string("fault plan: ") + kindName(e.kind) + " names node " +
                std::to_string(std::max(e.a, e.b)) +
                " but the fabric has only " + std::to_string(nodeCount) +
                " nodes");
    }
}

std::string
FaultPlan::scenarioOf(const std::string &spec)
{
    return spec.substr(0, spec.find('@'));
}

const std::vector<std::string> &
FaultPlan::knownScenarios()
{
    static const std::vector<std::string> kScenarios = {
        "none", "incast", "node-kill", "link-kill", "link-flap", "drop",
    };
    return kScenarios;
}

bool
FaultPlan::parse(const std::string &spec, std::uint32_t nodes,
                 FaultPlan *out, std::string *error)
{
    *out = FaultPlan{};
    if (spec.empty()) {
        *error = "empty fault spec (use 'none' for the healthy baseline)";
        return false;
    }

    const std::string scenario = scenarioOf(spec);
    const auto &known = knownScenarios();
    if (std::find(known.begin(), known.end(), scenario) == known.end()) {
        *error = "unknown fault scenario '" + scenario + "'";
        const std::string best = sim::closestMatch(scenario, known);
        if (!best.empty())
            *error += " (did you mean '" + best + "'?)";
        else
            *error += " (valid: none, incast, node-kill@T[+D][:N], "
                      "link-kill@T[+D][:A-B], link-flap@T~PxC[:A-B], "
                      "drop@T+D[:A-B])";
        return false;
    }

    if (scenario == "none" || scenario == "incast") {
        if (spec != scenario) {
            *error = "'" + scenario + "' takes no '@' arguments";
            return false;
        }
        // incast is a traffic pattern, not a fabric fault: the plan stays
        // empty and the workload steers every node at one hotspot.
        return true;
    }

    if (spec.size() == scenario.size()) {
        *error = "'" + scenario + "' needs '@<time>' (e.g. " + scenario +
                 "@50us)";
        return false;
    }
    std::string rest = spec.substr(scenario.size() + 1);

    // Optional ":<target>" suffix.
    std::string target;
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
        target = rest.substr(colon + 1);
        rest = rest.substr(0, colon);
    }

    if (scenario == "node-kill") {
        sim::NodeId victim = nodes / 2;
        if (!target.empty() && !parseNode(target, &victim, error))
            return false;
        const std::size_t plus = rest.find('+');
        sim::Tick at = 0;
        if (!parseTime(rest.substr(0, plus), &at, error))
            return false;
        out->killNode(at, victim);
        if (plus != std::string::npos) {
            sim::Tick dur = 0;
            if (!parseTime(rest.substr(plus + 1), &dur, error))
                return false;
            out->recoverNode(at + dur, victim);
        }
        return true;
    }

    // The remaining scenarios act on a directed link.
    sim::NodeId from = 0, to = 1;
    if (!target.empty() && !parseLink(target, &from, &to, error))
        return false;

    if (scenario == "link-kill") {
        const std::size_t plus = rest.find('+');
        sim::Tick at = 0;
        if (!parseTime(rest.substr(0, plus), &at, error))
            return false;
        out->killLink(at, from, to);
        if (plus != std::string::npos) {
            sim::Tick dur = 0;
            if (!parseTime(rest.substr(plus + 1), &dur, error))
                return false;
            out->recoverLink(at + dur, from, to);
        }
        return true;
    }

    if (scenario == "link-flap") {
        const std::size_t tilde = rest.find('~');
        if (tilde == std::string::npos) {
            *error = "link-flap needs '@T~PxC' (e.g. link-flap@40us~30usx3)";
            return false;
        }
        sim::Tick at = 0;
        if (!parseTime(rest.substr(0, tilde), &at, error))
            return false;
        const std::string cyc = rest.substr(tilde + 1);
        const std::size_t x = cyc.find('x');
        if (x == std::string::npos) {
            *error = "link-flap needs '~<period>x<cycles>' (e.g. ~30usx3)";
            return false;
        }
        sim::Tick period = 0;
        if (!parseTime(cyc.substr(0, x), &period, error))
            return false;
        sim::NodeId cycles = 0;
        if (!parseNode(cyc.substr(x + 1), &cycles, error))
            return false;
        if (cycles == 0 || period == 0) {
            *error = "link-flap needs a non-zero period and cycle count";
            return false;
        }
        out->flapLink(at, period, cycles, from, to);
        return true;
    }

    // scenario == "drop"
    const std::size_t plus = rest.find('+');
    if (plus == std::string::npos) {
        *error = "drop needs '@T+D' (a window, e.g. drop@40us+20us)";
        return false;
    }
    sim::Tick at = 0, dur = 0;
    if (!parseTime(rest.substr(0, plus), &at, error) ||
        !parseTime(rest.substr(plus + 1), &dur, error))
        return false;
    out->dropWindow(at, at + dur, from, to);
    return true;
}

FaultInjector::FaultInjector(sim::EventQueue &eq, Fabric &fabric,
                             FaultPlan plan)
    : eq_(eq), fabric_(fabric), plan_(std::move(plan))
{
}

void
FaultInjector::arm()
{
    if (armed_)
        return;
    // Validate up front so a bad plan throws here, not from inside a
    // scheduled event in the middle of a run.
    plan_.validate(fabric_.nodeCount());
    for (const auto &e : plan_.events()) {
        if (isLinkEvent(e.kind))
            fabric_.validateLink(e.a, e.b);
    }
    armed_ = true;
    for (const auto &e : plan_.sorted()) {
        Fabric *fab = &fabric_;
        eq_.schedule(e.at, [fab, e] {
            switch (e.kind) {
              case FaultEventKind::kNodeKill:
                fab->failNode(e.a);
                break;
              case FaultEventKind::kNodeRecover:
                fab->recoverNode(e.a);
                break;
              case FaultEventKind::kLinkKill:
                fab->failLink(e.a, e.b);
                break;
              case FaultEventKind::kLinkRecover:
                fab->recoverLink(e.a, e.b);
                break;
              case FaultEventKind::kDropStart:
                fab->setLinkLossy(e.a, e.b, true);
                break;
              case FaultEventKind::kDropEnd:
                fab->setLinkLossy(e.a, e.b, false);
                break;
            }
        });
    }
}

} // namespace sonuma::fab
