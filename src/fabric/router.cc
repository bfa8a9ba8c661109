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
        assert(k >= 2 && "torus radix must be >= 2");
        strides_.push_back(total_);
        total_ *= k;
    }
}

std::vector<std::uint32_t>
TorusRouting::coords(sim::NodeId id) const
{
    std::vector<std::uint32_t> c(dims_.size());
    std::uint32_t rest = id;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
        c[d] = rest % dims_[d];
        rest /= dims_[d];
    }
    return c;
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
        const std::uint32_t fwd = (b + k - a) % k;  // hops going +
        const std::uint32_t bwd = (a + k - b) % k;  // hops going -
        return static_cast<std::uint32_t>(
            fwd <= bwd ? 2 * d : 2 * d + 1);
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
    const std::uint32_t next = positive ? (c + 1) % k : (c + k - 1) % k;
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
        const std::uint32_t fwd = (cb + k - ca) % k;
        const std::uint32_t bwd = (ca + k - cb) % k;
        hops += std::min(fwd, bwd);
    }
    return hops;
}

} // namespace sonuma::fab
