/**
 * @file
 * Graph data structures for the application study (paper §7.5).
 *
 * CSR over *incoming* edges: PageRank's pull-style update for vertex v
 * reads rank/out_degree of each in-neighbor (exactly the loop in the
 * paper's Fig. 4). The host-side Graph is the workload-generation
 * artifact; per-node simulated-memory layouts are built from it by the
 * PageRank runners.
 */

#ifndef SONUMA_APP_GRAPH_HH
#define SONUMA_APP_GRAPH_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace sonuma::app {

/** Host-side CSR graph (in-edges). */
struct Graph
{
    std::uint32_t numVertices = 0;
    std::vector<std::uint32_t> rowPtr;    //!< size V+1
    std::vector<std::uint32_t> inNeighbor; //!< size E; source of in-edge
    std::vector<std::uint32_t> outDegree;  //!< size V

    std::uint64_t
    numEdges() const
    {
        return inNeighbor.size();
    }
};

/**
 * Synthetic power-law graph (preferential attachment), the substitute
 * for the paper's Twitter subset [29], which this repository does not
 * ship: preferential attachment gives the same skewed in-degree
 * distribution, which drives partition imbalance and cross-partition
 * reads.
 * Determinism: same rng seed => same graph.
 *
 * @param vertices number of vertices
 * @param avgDegree average in-degree (edges = vertices * avgDegree)
 */
Graph generatePowerLaw(sim::Rng &rng, std::uint32_t vertices,
                       std::uint32_t avgDegree);

/** Uniform-random graph (for locality ablations). */
Graph generateUniform(sim::Rng &rng, std::uint32_t vertices,
                      std::uint32_t avgDegree);

/**
 * Reference PageRank (host arithmetic, double precision): the golden
 * model every simulated implementation must match bit-for-bit given the
 * same summation order, or within tolerance otherwise.
 *
 * @param supersteps number of synchronous iterations
 * @param damping damping factor (0.85 in the paper's Fig. 4)
 */
std::vector<double> referencePageRank(const Graph &g,
                                      std::uint32_t supersteps,
                                      double damping = 0.85);

/** Random partition of vertices into @p parts of equal cardinality. */
struct Partition
{
    std::uint32_t parts = 1;
    std::vector<std::uint32_t> owner;      //!< vertex -> part
    std::vector<std::uint32_t> localIndex; //!< vertex -> index in part
    std::vector<std::vector<std::uint32_t>> members; //!< part -> vertices

    /** Fraction of edges whose endpoints live in different parts. */
    double crossEdgeFraction(const Graph &g) const;
};

Partition randomPartition(sim::Rng &rng, std::uint32_t vertices,
                          std::uint32_t parts);

} // namespace sonuma::app

#endif // SONUMA_APP_GRAPH_HH
