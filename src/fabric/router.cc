/**
 * @file
 * Torus routing arithmetic.
 */

#include "fabric/router.hh"

#include <algorithm>
#include <cassert>

#include "sim/did_you_mean.hh"

namespace sonuma::fab {

const char *
routingModeName(RoutingMode mode)
{
    return mode == RoutingMode::kAdaptive ? "adaptive" : "dor";
}

bool
parseRoutingMode(const std::string &name, RoutingMode *out,
                 std::string *error)
{
    if (name == "dor") {
        *out = RoutingMode::kDor;
        return true;
    }
    if (name == "adaptive") {
        *out = RoutingMode::kAdaptive;
        return true;
    }
    if (error) {
        *error = "unknown routing mode '" + name + "'";
        const std::string best = sim::closestMatch(name, {"dor", "adaptive"});
        if (!best.empty())
            *error += " (did you mean '" + best + "'?)";
        else
            *error += " (valid: dor, adaptive)";
    }
    return false;
}

TorusRouting::TorusRouting(std::vector<std::uint32_t> dims)
    : dims_(std::move(dims))
{
    assert(!dims_.empty());
    total_ = 1;
    strides_.reserve(dims_.size());
    for (auto k : dims_) {
        strides_.push_back(total_);
        total_ *= k;
    }
    // Every node's digits, so the per-hop calls never divide.
    coords_.reserve(std::size_t(total_) * dims_.size());
    for (std::uint32_t id = 0; id < total_; ++id) {
        for (std::size_t d = 0; d < dims_.size(); ++d)
            coords_.push_back((id / strides_[d]) % dims_[d]);
    }
}

std::vector<std::uint32_t>
TorusRouting::coords(sim::NodeId id) const
{
    const auto first = coords_.begin() +
        static_cast<std::ptrdiff_t>(std::size_t(id) * dims_.size());
    return {first, first + static_cast<std::ptrdiff_t>(dims_.size())};
}

sim::NodeId
TorusRouting::idAt(const std::vector<std::uint32_t> &coords) const
{
    std::uint32_t id = 0;
    std::uint32_t stride = 1;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
        id += coords[d] * stride;
        stride *= dims_[d];
    }
    return static_cast<sim::NodeId>(id);
}

std::uint32_t
TorusRouting::nextDir(sim::NodeId here, sim::NodeId dst) const
{
    assert(here != dst);
    // Digit-at-a-time comparison: this runs once per hop per packet, so
    // it must not materialize coordinate vectors.
    for (std::size_t d = 0; d < dims_.size(); ++d) {
        const std::uint32_t a = digit(here, d);
        const std::uint32_t b = digit(dst, d);
        if (a == b)
            continue;
        const std::uint32_t k = dims_[d];
        return static_cast<std::uint32_t>(
            ringHops(a, b, k) <= ringHops(b, a, k) ? 2 * d : 2 * d + 1);
    }
    assert(false && "here == dst");
    return 0;
}

sim::NodeId
TorusRouting::neighbor(sim::NodeId id, std::uint32_t dir) const
{
    const std::size_t d = dir / 2;
    const bool positive = (dir % 2) == 0;
    const std::uint32_t k = dims_[d];
    const std::uint32_t c = digit(id, d);
    const std::uint32_t next =
        positive ? (c + 1 == k ? 0 : c + 1) : (c == 0 ? k - 1 : c - 1);
    return static_cast<sim::NodeId>(id + (next - c) * strides_[d]);
}

std::uint32_t
TorusRouting::hopCount(sim::NodeId a, sim::NodeId b) const
{
    std::uint32_t hops = 0;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
        const std::uint32_t k = dims_[d];
        const std::uint32_t ca = digit(a, d);
        const std::uint32_t cb = digit(b, d);
        hops += std::min(ringHops(ca, cb, k), ringHops(cb, ca, k));
    }
    return hops;
}

} // namespace sonuma::fab
