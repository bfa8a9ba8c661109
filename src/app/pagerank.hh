/**
 * @file
 * The paper's application study (§7.5): three parallel PageRank
 * implementations on the Bulk Synchronous Processing model.
 *
 *  - SHM(pthreads): one cache-coherent node with N cores sharing memory;
 *    the aggregate LLC equals the N-node soNUMA configurations so no
 *    capacity advantage is conflated in (paper §7.5(i)).
 *  - soNUMA(bulk): per-superstep exchange — every node replicates its
 *    peers' vertex arrays with wide multi-line rmc_read_async pulls
 *    (Pregel-style aggregation), then computes entirely locally.
 *  - soNUMA(fine-grain): one rmc_read_async per cross-partition edge,
 *    the shared-memory-like style of Fig. 4.
 *
 * Every runner returns the final ranks (read back from simulated
 * memory) so tests can verify all three against the host reference.
 */

#ifndef SONUMA_APP_PAGERANK_HH
#define SONUMA_APP_PAGERANK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "app/graph.hh"
#include "node/cluster.hh"
#include "rmc/params.hh"
#include "sim/types.hh"

namespace sonuma::api {
class TestBed;
class Workload;
} // namespace sonuma::api

namespace sonuma::app {

/** One 64-byte vertex record in simulated memory (both rank parities
 *  plus out-degree travel in a single cache line / remote read). */
struct VertexData
{
    double rank[2];
    std::uint64_t outDegree;
    std::uint8_t pad[40];
};

static_assert(sizeof(VertexData) == 64, "vertex record is one line");

struct PageRankConfig
{
    std::uint32_t supersteps = 1;
    double damping = 0.85;
    std::uint64_t seed = 1;
    std::uint32_t edgeComputeCycles = 4;    //!< ALU work per edge
    std::uint32_t vertexComputeCycles = 8;  //!< loop/update per vertex
    std::uint32_t bulkChunkBytes = 8192;    //!< pull granularity (bulk)

    /**
     * Untimed warm-up supersteps executed before the measured ones
     * (caches and TLBs settle, as in steady-state BSP execution).
     * Ranks reflect warmup + supersteps iterations.
     */
    std::uint32_t warmupSupersteps = 0;

    /**
     * LLC capacity per core (SHM) / per node (soNUMA). Table 1's value
     * is 4 MB; the fig9 bench scales it down with the scaled-down graph
     * so the cache-to-dataset ratio matches the paper's (the Twitter
     * subset dwarfed every cache configuration, so vertex loads were
     * memory bound).
     */
    std::uint64_t l2PerUnitBytes = 4ull * 1024 * 1024;
};

struct PageRankRun
{
    std::vector<double> ranks;  //!< final ranks by global vertex id
    sim::Tick elapsed = 0;      //!< measured supersteps (excl. warm-up)
    std::uint64_t remoteOps = 0; //!< remote reads issued (0 for SHM)

    /**
     * Remote reads issued during the measured supersteps only — the
     * numerator that matches `elapsed` for throughput (equals
     * remoteOps when warmupSupersteps == 0).
     */
    std::uint64_t measuredRemoteOps = 0;

    std::uint64_t aborts = 0;   //!< aborted transfers (budget spent or flushed)
    std::uint64_t errors = 0;   //!< RRPP-reported request errors
    node::EventCounts events;   //!< the runner's whole simulation
};

/** SHM(pthreads) baseline on one node with @p threads cores. */
PageRankRun runPageRankShm(const Graph &g, std::uint32_t threads,
                           const PageRankConfig &cfg);

/** soNUMA(bulk) on @p partition.parts single-core nodes. */
PageRankRun runPageRankBulk(const Graph &g, const Partition &partition,
                            const PageRankConfig &cfg,
                            const rmc::RmcParams &rmcParams =
                                rmc::RmcParams::simulatedHardware());

/** soNUMA(fine-grain) on @p partition.parts single-core nodes. */
PageRankRun runPageRankFine(const Graph &g, const Partition &partition,
                            const PageRankConfig &cfg,
                            const rmc::RmcParams &rmcParams =
                                rmc::RmcParams::simulatedHardware());

/**
 * Fine-grain PageRank as a Workload body on a caller-owned TestBed —
 * the piece the soNUMA runners and the sweep's "pagerank" workload
 * share. One coroutine per node (api::Workload), barrier-aligned BSP
 * supersteps (§5.3), one rmc_read_async per cross-partition edge
 * (Fig. 4), per-node stats under "<scope>.node<i>.ops" /
 * ".opLatencyNs". The TestBed must have bed.nodes() == part.parts and
 * per-node segments of at least segmentBytesNeeded().
 *
 * Usage:
 *   PageRankFineWorkload pr(g, part, cfg);
 *   TestBed bed(ClusterSpec{}...segmentPerNode(pr.segmentBytesNeeded(P)));
 *   Workload wl(bed, "pagerank");
 *   pr.install(bed, wl);
 *   wl.run();
 *   PageRankRun run = pr.collect(bed);   // ranks, elapsed, remoteOps
 */
class PageRankFineWorkload
{
  public:
    PageRankFineWorkload(const Graph &g, const Partition &part,
                         const PageRankConfig &cfg);
    ~PageRankFineWorkload();

    /** Per-node context segment bytes (barrier region + owned array). */
    std::uint64_t segmentBytesNeeded() const;

    /** Seed vertex arrays in simulated memory and set the node body. */
    void install(api::TestBed &bed, api::Workload &wl);

    /**
     * After the workload ran: gather ranks out of simulated memory and
     * report the measured region (supersteps minus warm-up), remote
     * ops, and RMC abort/error counters.
     */
    PageRankRun collect(api::TestBed &bed) const;

  private:
    struct State;
    std::unique_ptr<State> st_;
};

} // namespace sonuma::app

#endif // SONUMA_APP_PAGERANK_HH
