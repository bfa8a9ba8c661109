/**
 * @file
 * A rack-scale soNUMA cluster: N nodes on one memory fabric, sharing a
 * context namespace (single administrative domain, paper §5.1).
 */

#ifndef SONUMA_NODE_CLUSTER_HH
#define SONUMA_NODE_CLUSTER_HH

#include <memory>
#include <vector>

#include "fabric/crossbar.hh"
#include "fabric/torus.hh"
#include "node/node.hh"
#include "os/context_registry.hh"
#include "sim/simulation.hh"

namespace sonuma::node {

/** Fabric topology selection. */
enum class Topology
{
    kCrossbar, //!< paper's evaluated configuration (flat 50 ns)
    kTorus,    //!< k-ary n-cube for the topology ablation
};

/**
 * Time-series sampling configuration (see docs/observability.md). Off by
 * default (periodNs == 0): no sampler event is ever scheduled, rings stay
 * empty, and model timing plus every checked-in artifact are unchanged.
 */
struct ObsParams
{
    std::uint64_t periodNs = 0;  //!< sampling period; 0 disables
    std::size_t slots = 1024;    //!< fixed ring slots per series
};

struct ClusterParams
{
    std::uint32_t nodes = 2;
    Topology topology = Topology::kCrossbar;
    fab::CrossbarParams crossbar;
    fab::TorusParams torus;    //!< dims must multiply to `nodes`
    NodeParams node;
    ObsParams obs;
};

/**
 * Eager configuration check: throws std::invalid_argument with a
 * precise message on nodes == 0 or more nodes than a 16-bit
 * sim::NodeId can name (65536), torus dims whose product differs from
 * the node count (instead of misbehaving deep in fab::Torus routing),
 * bad RmcParams, or a cache geometry the model cannot index: a size
 * that is not a non-zero whole number of assoc x 64 B sets, assoc or
 * L1 mshrs of 0, or more than 32 L1s (cores + the RMC's) on one L2
 * directory. Called by the Cluster constructor; also usable directly.
 */
void validate(const ClusterParams &params);

/**
 * Derive per-node fixed-capacity structures from the deployment shape
 * (the 64-node-era tuning audit; see docs/testing.md "Scaling the
 * fixed-capacity structures"). Only ever *raises* capacities, and is a
 * no-op at the Table 1 defaults, so existing configurations keep their
 * exact timing:
 *
 *  - ITT slots (RmcParams::maxTids): at least one transfer id per WQ
 *    slot of a full session window (qpEntries x qpCount), so a deep
 *    multi-QP pipeline never stalls on tid allocation.
 *  - NI eject ring (NiParams::ejectQueueDepth): grows with the node
 *    count to absorb incast bursts (e.g. N-1 simultaneous barrier
 *    announcement writes), bounded at 256.
 *
 * Deliberately NOT derived: MAQ/TLB/CT$ sizes (Table 1 hardware
 * structures whose pressure is per-node, not per-cluster — incast
 * backpressures through NI credits instead) and torus creditsPerLane
 * (end-to-end per source; the diameter of an 8x8x8 torus still fits
 * comfortably in the default 64 in-flight packets).
 *
 * Called by the Cluster constructor on its own copy of the params;
 * also usable directly (tests, capacity introspection).
 */
void deriveCapacities(ClusterParams &params);

class Cluster
{
  public:
    Cluster(sim::Simulation &sim, const ClusterParams &params = {});
    ~Cluster();

    Node &node(std::size_t i) { return *nodes_.at(i); }
    std::size_t nodeCount() const { return nodes_.size(); }
    os::ContextRegistry &registry() { return registry_; }
    fab::Fabric &fabric() { return *fabric_; }
    const ClusterParams &params() const { return params_; }

    /**
     * Convenience for tests/benches: create context @p ctx owned by
     * @p owner and grant it to everyone.
     */
    void createSharedContext(sim::CtxId ctx, os::UserId owner = 0);

  private:
    ClusterParams params_;
    os::ContextRegistry registry_;
    std::unique_ptr<fab::Fabric> fabric_;
    std::vector<std::unique_ptr<Node>> nodes_;

    // Periodic sampler service (armed only when obs.periodNs > 0). The
    // pending event captures `this`, so the destructor cancels it — the
    // event queue can outlive the cluster.
    sim::EventQueue *eq_ = nullptr;
    sim::StatRegistry *stats_ = nullptr;
    sim::Tick obsPeriod_ = 0;
    sim::EventId samplerEvent_{};
    bool samplerArmed_ = false;

    void armSampler();
};

} // namespace sonuma::node

#endif // SONUMA_NODE_CLUSTER_HH
