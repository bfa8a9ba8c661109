/**
 * @file
 * Parameter-matrix sweep driver for the paper's two scale studies.
 *
 * Runs one workload over the full cross product of request size x QP
 * depth x QP count x node count x topology, one freshly-built
 * TestBed + Workload per cell, and emits one flat JSON object per cell.
 * Schema 4 carries every field in every cell; a healthy cell has
 * routing "dor", fault_scenario "none" and zero fault counters:
 *
 *   {"bench": "sweep", "schema": 4, "workload": "uniform", "nodes": 64,
 *    "topology": "torus_8x8", "request_bytes": 64, "qp_depth": 64, ...,
 *    "ops": 8192, "mops": ..., "p99_latency_ns": ..., "ok_ops": 8192,
 *    ..., <pagerank extras>, "sim_us": ..., "host_seconds": ...}
 *
 * bench/check_artifacts.py holds the full field list and identities.
 *
 * The workload is one of two:
 *
 *  - "uniform": the fig9-style uniform remote-read kernel, every node
 *    streaming a full-window pipeline of reads round-robin over its
 *    peers. Artifacts are SWEEP_<label>.json.
 *  - "pagerank": the paper's Fig. 9 application itself — fine-grain
 *    BSP PageRank (PageRankFineWorkload), one remote read per
 *    cross-partition edge, ranks verified against the host reference
 *    in every cell. Artifacts are FIG9_<label>.json.
 *
 * Both sample per-op latency into the per-node histogram
 * "sweep.node<i>.opLatencyNs" (pooled cluster-wide into mean and
 * percentiles); the cell's total ops (the mops numerator) covers
 * exactly the measured region.
 */

#ifndef SONUMA_APP_SWEEP_HH
#define SONUMA_APP_SWEEP_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/testbed.hh"
#include "fabric/fault.hh"
#include "fabric/router.hh"
#include "node/cluster.hh"
#include "rmc/params.hh"

namespace sonuma::app {

/** The sweep matrix plus per-cell workload intensity. */
struct SweepConfig
{
    std::vector<std::uint32_t> requestSizes{64};
    std::vector<std::uint32_t> qpDepths{64};
    std::vector<std::uint32_t> qpCounts{1}; //!< QPs per session (Table 2)
    std::vector<std::uint32_t> nodeCounts{4};
    std::vector<node::Topology> topologies{node::Topology::kCrossbar};

    /** "uniform" or "pagerank"; anything else throws. */
    std::string workload = "uniform";

    /**
     * Torus shape. Explicit dims (e.g. {8, 8, 8} from --topo=8x8x8)
     * apply to every torus cell and must multiply to its node count;
     * when empty, cells auto-factorize their node count into
     * torusNdims near-equal radices (64 -> {8,8} in 2D, {4,4,4} in 3D).
     */
    std::vector<std::uint32_t> torusDims;
    std::uint32_t torusNdims = 2;

    std::uint32_t opsPerNode = 128;   //!< async reads issued per node
    std::uint64_t segmentBytes = 1ull << 20; //!< 1 MiB per node
    std::uint64_t seed = 1;
    bool doorbellBatching = false;    //!< batch WQ doorbells per QP
    rmc::RmcParams rmcParams = rmc::RmcParams::simulatedHardware();

    /**
     * Fault scenario applied to every cell (fab::FaultPlan grammar:
     * none | incast | node-kill@T[+D][:N] | link-kill@T[+D][:A-B] |
     * link-flap@T~PxC[:A-B] | drop@T+D[:A-B]). "none" keeps cells
     * healthy; "incast" leaves the fabric alone but switches the
     * uniform workload to an all-to-one traffic storm on node 0.
     */
    std::string faultSpec = "none";

    /** Torus routing policy; adaptive detours around failed links. */
    fab::RoutingMode routing = fab::RoutingMode::kDor;

    /** PageRank workload axis (used when workload == "pagerank"). */
    struct PageRankAxis
    {
        std::uint32_t vertices = 16384; //!< fixed graph: strong scaling
        std::uint32_t degree = 8;       //!< average in-degree
        std::uint32_t supersteps = 1;   //!< measured BSP supersteps
    };
    PageRankAxis pagerank;

    /**
     * Time-series sampling period in simulated ns; 0 (default) keeps
     * sampling off; sampling is read-only, so cell artifacts are the
     * same either way. When set, each cell also renders an
     * OBS_<label>.json sidecar (written next to the cell artifact when
     * outDir is set; docs/observability.md).
     */
    std::uint64_t obsPeriodNs = 0;

    std::string outDir;   //!< write one <prefix><label>.json per cell
    bool echo = true;     //!< print each cell's JSON to stdout
};

/** One cell of the matrix plus its measurements. */
struct SweepCellResult
{
    // Coordinates.
    std::string workload = "uniform";
    std::uint32_t nodes = 0;
    node::Topology topology = node::Topology::kCrossbar;
    std::vector<std::uint32_t> torusDims; //!< empty for crossbar
    std::uint32_t requestBytes = 0;
    std::uint32_t qpDepth = 0;
    std::uint32_t qpCount = 1;
    bool doorbellBatching = false;

    // Degraded-mode coordinates (defaults = the healthy baseline; a
    // cell is "degraded" when either differs, which names its label
    // and artifact family).
    std::string faultScenario = "none";
    fab::RoutingMode routing = fab::RoutingMode::kDor;

    // Measurements.
    std::uint64_t ops = 0;          //!< total remote ops issued
    double mops = 0;                //!< million ops per simulated second
    double gbps = 0;                //!< payload Gbit per simulated second
    double meanLatencyNs = 0;       //!< post -> completion, per op
    double p99LatencyNs = 0;
    double simMicros = 0;           //!< measured region, simulated time
    node::EventCounts events;       //!< whole run; events_per_op uses ops
    double hostSeconds = 0;         //!< wall time to simulate the cell

    // Degraded-mode accounting. okOps + failedOps == ops holds for
    // every cell (a healthy cell has okOps == ops and zeros elsewhere).
    std::uint64_t okOps = 0;        //!< ops that completed successfully
    std::uint64_t failedOps = 0;    //!< ops that completed with an error
    std::uint64_t droppedMessages = 0; //!< fabric-level packet drops
    // Reliable-delivery accounting, pooled from the RMC counters. A
    // dropped-then-retransmitted packet shows up in droppedMessages AND
    // retransmits but never as a lost op: an op fails only when its
    // transfer spends the attempt budget, so okOps + unrecoverable ==
    // ops holds exactly (asserted for drop-scenario uniform cells in
    // runCell).
    std::uint64_t retransmits = 0;  //!< timed-out transfers re-sent
    std::uint64_t dupSuppressed = 0; //!< replays answered from dedup
    std::uint64_t unrecoverable = 0; //!< transfers given up for good
    double goodputMops = 0;         //!< successful ops per simulated second
    double p50LatencyNs = 0;
    double p95LatencyNs = 0;

    /** True when this cell ran with faults or non-default routing. */
    bool
    degraded() const
    {
        return faultScenario != "none" ||
               routing != fab::RoutingMode::kDor;
    }

    /** Workload-specific JSON fields, appended in order. */
    std::vector<std::pair<std::string, double>> extra;

    /**
     * Rendered OBS_<label>.json sidecar (empty unless the cell ran with
     * SweepConfig::obsPeriodNs > 0). Captured before the cell's TestBed
     * is torn down; not part of json().
     */
    std::string obsJson;

    /**
     * Stable identifier, e.g. "n64_torus_8x8_rs64_qd64"; multi-QP
     * cells append "_qp<N>", batched cells "_db", pagerank cells
     * "_pagerank", adaptively-routed cells "_adaptive" and faulted
     * cells "_<scenario>" (single-QP uniform dor-routed healthy labels
     * keep their original spelling so existing artifacts stay
     * diffable).
     */
    std::string label() const;

    /** Human-readable topology, e.g. "torus_8x8x8" or "crossbar". */
    std::string topologyName() const;

    /** The cell's JSON artifact (sim::kArtifactSchema). */
    std::string json() const;
};

class SweepDriver
{
  public:
    explicit SweepDriver(SweepConfig cfg) : cfg_(std::move(cfg)) {}

    /**
     * Run every cell of the matrix. Each cell gets its own Simulation
     * seeded from cfg.seed, so cells are independent and reproducible.
     * The fault plan is checked against every node count before the
     * first cell runs, so a bad plan throws std::invalid_argument
     * without printing or writing any cell.
     */
    std::vector<SweepCellResult> run();

    /** Run one cell (used by run() and directly by tests). */
    SweepCellResult runCell(std::uint32_t nodes, node::Topology topo,
                            std::uint32_t requestBytes,
                            std::uint32_t qpDepth,
                            std::uint32_t qpCount = 1);

    /**
     * Near-square 2D torus factorization for @p nodes, e.g. 64 ->
     * {8, 8}, 32 -> {4, 8}. Falls back to the ring {n} for primes.
     */
    static std::vector<std::uint32_t> torusDimsFor(std::uint32_t nodes);

    /**
     * Near-cubic factorization into @p ndims radices, largest last:
     * 64 -> {4, 4, 4}, 256 -> {4, 8, 8}, 512 -> {8, 8, 8}. A count
     * with too few factors gets fewer dimensions (7 -> {7}), since a
     * radix-1 dimension has no link and node::validate rejects it.
     */
    static std::vector<std::uint32_t> torusDimsFor(std::uint32_t nodes,
                                                   std::uint32_t ndims);

  private:
    SweepConfig cfg_;

    /** cfg.faultSpec parsed and range-checked for @p nodes. */
    fab::FaultPlan faultPlan(std::uint32_t nodes) const;

    void emit(const SweepCellResult &cell,
              const std::string &prefix) const;
};

} // namespace sonuma::app

#endif // SONUMA_APP_SWEEP_HH
