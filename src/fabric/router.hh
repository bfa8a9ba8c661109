/**
 * @file
 * Dimension-order routing for k-ary n-cube (torus) topologies.
 *
 * Pure routing arithmetic, separated from the fabric timing model so the
 * routing function is directly unit-testable: coordinate mapping, shortest
 * ring direction per dimension, and hop counting.
 */

#ifndef SONUMA_FABRIC_ROUTER_HH
#define SONUMA_FABRIC_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace sonuma::fab {

/**
 * Packet routing policy for the torus fabric.
 *
 * kDor is strict dimension-order (deterministic, minimal, livelock-free)
 * and the default; kAdaptive detours minimally around failed links and
 * falls back to misrouting when no productive link is up.
 */
enum class RoutingMode : std::uint8_t
{
    kDor = 0,
    kAdaptive,
};

/** "dor" / "adaptive". */
const char *routingModeName(RoutingMode mode);

/**
 * Parse a routing-mode name. Returns false and fills @p error (with a
 * did-you-mean hint) on unknown names.
 */
bool parseRoutingMode(const std::string &name, RoutingMode *out,
                      std::string *error);

/**
 * Routing helper for an n-dimensional torus with per-dimension radix.
 *
 * Directions are encoded as 2*dim (positive) and 2*dim+1 (negative).
 * The forwarding decision is table-free (paper §6: "directly maps
 * destination addresses to outgoing router ports"); the only table is
 * a host-side cache of every node's coordinates.
 *
 * @pre every radix is at least 2 (node::validate enforces it): a
 * radix-1 ring has no link, and its node would be its own neighbor.
 */
class TorusRouting
{
  public:
    explicit TorusRouting(std::vector<std::uint32_t> dims);

    std::size_t dimensions() const { return dims_.size(); }
    std::uint32_t radix(std::size_t d) const { return dims_[d]; }

    /** Total node count (product of radices). */
    std::uint32_t nodeCount() const { return total_; }

    /** Coordinates of @p id (mixed-radix decomposition). */
    std::vector<std::uint32_t> coords(sim::NodeId id) const;

    /** Node id at @p coords. */
    sim::NodeId idAt(const std::vector<std::uint32_t> &coords) const;

    /**
     * Next output direction for a packet at @p here destined to @p dst.
     * Dimension-order: resolve the lowest differing dimension first,
     * taking the shorter way around the ring (ties go positive).
     *
     * @pre here != dst
     */
    std::uint32_t nextDir(sim::NodeId here, sim::NodeId dst) const;

    /** Neighbor of @p id in direction @p dir. */
    sim::NodeId neighbor(sim::NodeId id, std::uint32_t dir) const;

    /**
     * True if taking @p dir from @p here brings the packet strictly
     * closer to @p dst (a "productive" hop in adaptive routing).
     */
    bool
    productive(sim::NodeId here, sim::NodeId dst, std::uint32_t dir) const
    {
        return hopCount(neighbor(here, dir), dst) < hopCount(here, dst);
    }

    /** Minimal hop count between two nodes. */
    std::uint32_t hopCount(sim::NodeId a, sim::NodeId b) const;

    /** Number of directed ports per router (2 per dimension). */
    std::uint32_t portCount() const
    {
        return static_cast<std::uint32_t>(2 * dims_.size());
    }

  private:
    std::vector<std::uint32_t> dims_;
    std::vector<std::uint32_t> strides_; //!< mixed-radix place values
    std::uint32_t total_;
    std::vector<std::uint32_t> coords_; //!< [id * dimensions() + d]

    /** Digit of @p id in dimension @p d, without materializing coords. */
    std::uint32_t
    digit(sim::NodeId id, std::size_t d) const
    {
        return coords_[std::size_t(id) * dims_.size() + d];
    }

    /** Hops from digit @p a to digit @p b going + round a ring of @p k. */
    static std::uint32_t
    ringHops(std::uint32_t a, std::uint32_t b, std::uint32_t k)
    {
        return b >= a ? b - a : b + k - a;
    }
};

} // namespace sonuma::fab

#endif // SONUMA_FABRIC_ROUTER_HH
