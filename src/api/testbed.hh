/**
 * @file
 * Declarative cluster construction for applications, benches and tests.
 *
 * A ClusterSpec describes a whole soNUMA deployment in one expression;
 * building it performs every setup step the paper's §5.1 flow requires
 * — cluster + fabric assembly, one process per node, context creation,
 * per-node segment registration, context opens — and returns a TestBed
 * with per-(node, core) session accessors:
 *
 *   TestBed bed(ClusterSpec{}
 *                   .nodes(64)
 *                   .torus(8, 8)
 *                   .context(1)
 *                   .segmentPerNode(64_MiB));
 *   auto &s = bed.session(3);                 // node 3, core 0
 *   bed.spawn(worker(bed, 3));
 *   bed.run();
 *
 * This replaces the hand-wired twenty-line cluster/process/segment/
 * context preamble every bench and example used to carry.
 */

#ifndef SONUMA_API_TESTBED_HH
#define SONUMA_API_TESTBED_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "api/session.hh"
#include "fabric/fault.hh"
#include "node/cluster.hh"
#include "sim/simulation.hh"

namespace sonuma::api {

/** Byte-size literals: 64_KiB, 64_MiB, 2_GiB. */
constexpr std::uint64_t operator""_KiB(unsigned long long v)
{
    return v << 10;
}

constexpr std::uint64_t operator""_MiB(unsigned long long v)
{
    return v << 20;
}

constexpr std::uint64_t operator""_GiB(unsigned long long v)
{
    return v << 30;
}

/**
 * Builder for a whole cluster-plus-context deployment. All setters
 * return *this so specs read as one chained expression. Invalid
 * combinations (nodes == 0, torus dims not multiplying to the node
 * count) throw std::invalid_argument at build time.
 */
class ClusterSpec
{
  public:
    /** Number of nodes in the rack (default 2). */
    ClusterSpec &
    nodes(std::uint32_t n)
    {
        params_.nodes = n;
        return *this;
    }

    /** Flat crossbar fabric (default; the paper's evaluated config). */
    ClusterSpec &
    crossbar()
    {
        params_.topology = node::Topology::kCrossbar;
        return *this;
    }

    /**
     * k-ary n-cube fabric; radix per dimension, e.g. torus({8, 8}) for
     * a 64-node 2D torus or torus({8, 8, 8}) for a 512-node 3D torus.
     */
    ClusterSpec &
    torus(std::initializer_list<std::uint32_t> dims)
    {
        params_.topology = node::Topology::kTorus;
        params_.torus.dims.assign(dims.begin(), dims.end());
        return *this;
    }

    /** As above with a runtime-built dims vector (e.g. --topo=8x8x8). */
    ClusterSpec &
    torus(std::vector<std::uint32_t> dims)
    {
        params_.topology = node::Topology::kTorus;
        params_.torus.dims = std::move(dims);
        return *this;
    }

    ClusterSpec &
    torus(std::uint32_t x, std::uint32_t y)
    {
        return torus({x, y});
    }

    ClusterSpec &
    torus(std::uint32_t x, std::uint32_t y, std::uint32_t z)
    {
        return torus({x, y, z});
    }

    /** Context id every node joins (default 1). */
    ClusterSpec &
    context(sim::CtxId ctx)
    {
        ctx_ = ctx;
        return *this;
    }

    /**
     * Bytes of context segment registered on every node (default
     * 1 MiB). Physical memory is sized from it automatically.
     */
    ClusterSpec &
    segmentPerNode(std::uint64_t bytes)
    {
        segBytes_ = bytes;
        return *this;
    }

    ClusterSpec &
    coresPerNode(std::uint32_t c)
    {
        params_.node.cores = c;
        return *this;
    }

    ClusterSpec &
    rmc(const rmc::RmcParams &p)
    {
        params_.node.rmc = p;
        return *this;
    }

    /** WQ/CQ ring depth per queue pair (default 64). */
    ClusterSpec &
    qpDepth(std::uint32_t entries)
    {
        params_.node.rmc.qpEntries = entries;
        return *this;
    }

    /**
     * Queue pairs per session (default 1): every application session
     * registers this many WQ/CQ pairs and distributes posts across
     * them (paper Table 2's IOPS-vs-QPs axis).
     */
    ClusterSpec &
    qpCount(std::uint32_t n)
    {
        params_.node.rmc.qpCount = n;
        return *this;
    }

    /**
     * Enable doorbell batching on every TestBed-created session: async
     * posts accumulate per queue pair and ring the RMC once per QP at
     * flush() or when the session blocks (see SessionParams).
     */
    ClusterSpec &
    doorbellBatching(bool on = true)
    {
        doorbellBatching_ = on;
        return *this;
    }

    ClusterSpec &
    l2PerNode(std::uint64_t bytes)
    {
        params_.node.l2.sizeBytes = bytes;
        return *this;
    }

    /**
     * Torus packet-routing policy (default dor). Adaptive detours
     * around failed links; requires a torus topology.
     */
    ClusterSpec &
    routing(fab::RoutingMode mode)
    {
        params_.torus.routing = mode;
        return *this;
    }

    /**
     * Scheduled fault events for this run. The TestBed arms the plan on
     * the event queue at build time; events fire at their sim-time
     * ticks, deterministically for a given (seed, plan).
     */
    ClusterSpec &
    faultPlan(const fab::FaultPlan &plan)
    {
        faultPlan_ = plan;
        return *this;
    }

    /**
     * Enable time-series sampling: every registered probe records one
     * sample per @p periodNs of simulated time into @p slots fixed ring
     * slots (docs/observability.md). Off by default; enabling it never
     * changes model timing (the sampler is read-only).
     */
    ClusterSpec &
    observability(std::uint64_t periodNs, std::size_t slots = 1024)
    {
        params_.obs.periodNs = periodNs;
        params_.obs.slots = slots;
        return *this;
    }

    /** Simulation seed (default 1). */
    ClusterSpec &
    seed(std::uint64_t s)
    {
        seed_ = s;
        return *this;
    }

    /** Resolved low-level parameters (validated on access). */
    node::ClusterParams resolve() const;

    sim::CtxId ctx() const { return ctx_; }
    std::uint64_t segmentBytes() const { return segBytes_; }
    std::uint64_t seedValue() const { return seed_; }
    bool doorbellBatchingValue() const { return doorbellBatching_; }
    const fab::FaultPlan &faultPlanValue() const { return faultPlan_; }

  private:
    node::ClusterParams params_;
    sim::CtxId ctx_ = 1;
    std::uint64_t segBytes_ = 1_MiB;
    std::uint64_t seed_ = 1;
    bool doorbellBatching_ = false;
    fab::FaultPlan faultPlan_;
};

/**
 * A fully stood-up cluster: simulation, fabric, nodes, one process per
 * node with a registered context segment, and lazily-created sessions.
 */
class TestBed
{
  public:
    explicit TestBed(const ClusterSpec &spec);

    sim::Simulation &sim() { return sim_; }
    node::Cluster &cluster() { return *cluster_; }
    node::Node &node(std::uint32_t i) { return cluster_->node(i); }
    std::uint32_t nodes() const { return nodeCount_; }
    sim::CtxId ctx() const { return ctx_; }

    os::Process &process(std::uint32_t nodeIdx);

    /** Base VA of node's registered context segment. */
    vm::VAddr segBase(std::uint32_t nodeIdx) const;

    /** Registered segment size (uniform across nodes). */
    std::uint64_t segBytes() const { return segBytes_; }

    /**
     * The (node, core) application session; created on first use and
     * cached, so repeated calls return the same queue pair.
     */
    RmcSession &session(std::uint32_t nodeIdx, std::uint32_t core = 0);

    /**
     * A fresh session (new queue pairs) on (node, core) — for software
     * layers that want QPs of their own, e.g. a Barrier next to
     * application traffic. The default SessionParams inherit the
     * spec's doorbell-batching choice and the node's qpCount.
     */
    RmcSession &newSession(std::uint32_t nodeIdx, std::uint32_t core = 0);

    /** As above with explicit SessionParams (QP fan-out, batching). */
    RmcSession &newSession(std::uint32_t nodeIdx, std::uint32_t core,
                           const SessionParams &params);

    /** Convenience pass-throughs. */
    void spawn(sim::Task t) { sim_.spawn(std::move(t)); }
    sim::Tick run() { return sim_.run(); }

  private:
    sim::Simulation sim_;
    std::unique_ptr<node::Cluster> cluster_;
    std::unique_ptr<fab::FaultInjector> faultInjector_;
    sim::CtxId ctx_;
    SessionParams sessionParams_; //!< defaults for created sessions
    std::uint32_t nodeCount_;
    std::uint64_t segBytes_;
    std::vector<os::Process *> procs_;
    std::vector<vm::VAddr> segBases_;
    std::map<std::pair<std::uint32_t, std::uint32_t>, RmcSession *>
        primary_;
    std::vector<std::unique_ptr<RmcSession>> sessions_;
};

} // namespace sonuma::api

#endif // SONUMA_API_TESTBED_HH
