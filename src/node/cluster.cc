/**
 * @file
 * Cluster assembly.
 */

#include "node/cluster.hh"

#include <limits>
#include <stdexcept>
#include <string>

#include "sim/log.hh"

namespace sonuma::node {

namespace {

/** Node ids are sim::NodeId, so ids 0 .. 65535 name every node. */
constexpr std::uint64_t kMaxNodes =
    std::uint64_t(std::numeric_limits<sim::NodeId>::max()) + 1;

/** Render a dims vector the way users write it: "8x8x8". */
std::string
dimsString(const std::vector<std::uint32_t> &dims)
{
    std::string out;
    for (auto d : dims) {
        if (!out.empty())
            out += "x";
        out += std::to_string(d);
    }
    return out;
}

/**
 * A cache must hold at least one whole set: the set index divides by
 * the set count, and a partial set would silently drop capacity.
 */
void
validateCacheGeometry(const std::string &field, std::uint64_t sizeBytes,
                      std::uint32_t assoc)
{
    if (assoc == 0)
        throw std::invalid_argument("NodeParams: " + field +
                                    ".assoc must be >= 1 (got 0)");
    const std::uint64_t setBytes =
        std::uint64_t(assoc) * sim::kCacheLineBytes;
    if (sizeBytes == 0 || sizeBytes % setBytes != 0)
        throw std::invalid_argument(
            "NodeParams: " + field + ".sizeBytes " +
            std::to_string(sizeBytes) + " is not a non-zero whole number " +
            "of " + std::to_string(setBytes) + " B sets (assoc " +
            std::to_string(assoc) + " x 64 B lines)");
}

} // namespace

void
validate(const ClusterParams &params)
{
    if (params.nodes == 0)
        throw std::invalid_argument(
            "ClusterParams: nodes must be >= 1 (got 0)");
    if (params.nodes > kMaxNodes)
        throw std::invalid_argument(
            "ClusterParams: nodes " + std::to_string(params.nodes) +
            " exceeds " + std::to_string(kMaxNodes) +
            "; every node needs its own 16-bit sim::NodeId");
    rmc::validate(params.node.rmc);
    const NodeParams &node = params.node;
    validateCacheGeometry("l1", node.l1.sizeBytes, node.l1.assoc);
    validateCacheGeometry("l2", node.l2.sizeBytes, node.l2.assoc);
    if (node.l1.mshrs == 0)
        throw std::invalid_argument(
            "NodeParams: l1.mshrs must be >= 1 (got 0); every L1 miss "
            "needs an MSHR to start its transaction");
    if (node.cores > 31)
        throw std::invalid_argument(
            "NodeParams: cores " + std::to_string(node.cores) +
            " gives cores + 1 = " + std::to_string(node.cores + 1ull) +
            " L1s on one L2 (one per core plus the RMC's), more than the "
            "32 its directory's sharer mask can track");
    if (params.topology == Topology::kCrossbar &&
        params.torus.routing == fab::RoutingMode::kAdaptive)
        throw std::invalid_argument(
            "ClusterParams: routing=adaptive requires a torus topology; "
            "crossbar links are point-to-point, so there is no alternate "
            "path to adapt onto");
    if (params.topology == Topology::kTorus) {
        const auto &dims = params.torus.dims;
        if (dims.empty())
            throw std::invalid_argument(
                "ClusterParams: torus dims are empty; give one radix per "
                "dimension, e.g. {8, 8} for an 8x8 torus or {8, 8, 8} "
                "for an 8x8x8 3D torus");
        std::uint64_t cap = 1;
        for (auto d : dims) {
            if (d < 2)
                throw std::invalid_argument(
                    "ClusterParams: torus dims " + dimsString(dims) +
                    " contain a radix of " + std::to_string(d) +
                    "; every dimension needs radix >= 2, since a "
                    "radix-1 ring has no link");
            cap *= d;
        }
        if (cap != params.nodes)
            throw std::invalid_argument(
                "ClusterParams: torus dims " + dimsString(dims) +
                " hold " + std::to_string(cap) + " nodes but nodes=" +
                std::to_string(params.nodes) +
                "; dims must multiply to the node count");
    }
}

void
deriveCapacities(ClusterParams &params)
{
    // ITT: one transfer id per WQ slot of a full session window, so a
    // qpCount x qpEntries pipeline never blocks in allocTid. Bounded:
    // 2048 entries is 64 KB of ITT SRAM at 32 B/entry, already beyond
    // anything the paper's Table 1 contemplates.
    auto &rmcp = params.node.rmc;
    const std::uint32_t window = std::min<std::uint32_t>(
        2048, rmcp.qpEntries * rmcp.qpCount);
    rmcp.maxTids = std::max(rmcp.maxTids, window);

    // NI eject ring: at rack scale a node can receive request bursts
    // from every peer at once (the barrier's N-1 announcement writes
    // are the canonical incast). Deeper eject buffering keeps those
    // bursts out of the routers; injection stays at its default (a
    // node only generates its own load).
    params.node.ni.ejectQueueDepth =
        std::max<std::size_t>(params.node.ni.ejectQueueDepth,
                              std::min<std::size_t>(256, params.nodes / 4));
}

Cluster::Cluster(sim::Simulation &sim, const ClusterParams &params)
    : params_(params), registry_(params.node.rmc.maxContexts)
{
    validate(params_);
    deriveCapacities(params_);

    // Observability: enable sampling *before* any model construction so
    // every series registered below gets its fixed ring slots at add()
    // time — no allocation ever happens on the sampling path itself.
    if (params_.obs.periodNs > 0) {
        eq_ = &sim.eq();
        stats_ = &sim.stats();
        obsPeriod_ = params_.obs.periodNs * sim::kTicksPerNs;
        stats_->enableSampling(params_.obs.slots);
    }

    switch (params_.topology) {
      case Topology::kCrossbar:
        fabric_ = std::make_unique<fab::CrossbarFabric>(
            sim.eq(), sim.stats(), params_.crossbar);
        break;
      case Topology::kTorus:
        fabric_ = std::make_unique<fab::TorusFabric>(sim.eq(), sim.stats(),
                                                     params_.torus);
        break;
    }

    for (std::uint32_t i = 0; i < params_.nodes; ++i) {
        nodes_.push_back(std::make_unique<Node>(
            sim, "node" + std::to_string(i), static_cast<sim::NodeId>(i),
            *fabric_, registry_, params_.node));
    }

    if (obsPeriod_ > 0)
        armSampler();
}

Cluster::~Cluster()
{
    // The pending sampler event captures `this`; the event queue may
    // outlive the cluster (TestBed tears the cluster down first).
    if (samplerArmed_)
        eq_->cancel(samplerEvent_);
}

void
Cluster::armSampler()
{
    samplerArmed_ = true;
    samplerEvent_ = eq_->scheduleAfter(obsPeriod_, [this] {
        samplerArmed_ = false;
        stats_->sampleAll(eq_->now());
        // Re-arm only while model events remain: probes are read-only,
        // so once the model quiesces the sampler lets run() terminate
        // instead of ticking an idle cluster forever.
        if (eq_->pendingEvents() > 0)
            armSampler();
    });
}

void
Cluster::createSharedContext(sim::CtxId ctx, os::UserId owner)
{
    registry_.createContext(ctx, owner);
    for (os::UserId uid = 0; uid < 64; ++uid)
        registry_.grant(ctx, uid);
}

} // namespace sonuma::node
