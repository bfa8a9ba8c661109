/**
 * @file
 * Tests for the application suite: graph generation/partitioning and the
 * three PageRank implementations against the host reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "app/graph.hh"
#include "app/pagerank.hh"

namespace {

using namespace sonuma;
using namespace sonuma::app;

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

TEST(GraphGen, PowerLawShape)
{
    sim::Rng rng(3);
    Graph g = generatePowerLaw(rng, 2000, 8);
    EXPECT_EQ(g.numVertices, 2000u);
    EXPECT_GE(g.numEdges(), 2000u * 8);
    // Power law: the top-1% out-degree vertices own a large edge share.
    std::vector<std::uint32_t> degrees(g.outDegree);
    std::sort(degrees.rbegin(), degrees.rend());
    std::uint64_t top = 0, total = 0;
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        total += degrees[i];
        if (i < degrees.size() / 100)
            top += degrees[i];
    }
    EXPECT_GT(static_cast<double>(top) / static_cast<double>(total), 0.15);
}

TEST(GraphGen, Deterministic)
{
    sim::Rng a(5), b(5);
    Graph g1 = generatePowerLaw(a, 500, 4);
    Graph g2 = generatePowerLaw(b, 500, 4);
    EXPECT_EQ(g1.inNeighbor, g2.inNeighbor);
    EXPECT_EQ(g1.rowPtr, g2.rowPtr);
}

TEST(GraphGen, CsrIsConsistent)
{
    sim::Rng rng(7);
    Graph g = generateUniform(rng, 300, 6);
    EXPECT_EQ(g.rowPtr.front(), 0u);
    EXPECT_EQ(g.rowPtr.back(), g.numEdges());
    std::uint64_t outSum = 0;
    for (auto d : g.outDegree)
        outSum += d;
    EXPECT_GE(outSum, g.numEdges()); // >= because of the degree-1 fixup
    for (auto u : g.inNeighbor)
        EXPECT_LT(u, g.numVertices);
}

TEST(PartitionTest, EqualCardinalityAndConsistency)
{
    sim::Rng rng(11);
    Partition p = randomPartition(rng, 1000, 8);
    for (std::uint32_t part = 0; part < 8; ++part)
        EXPECT_EQ(p.members[part].size(), 125u);
    for (std::uint32_t v = 0; v < 1000; ++v)
        EXPECT_EQ(p.members[p.owner[v]][p.localIndex[v]], v);
}

TEST(PartitionTest, RandomPartitionHasExpectedCrossFraction)
{
    sim::Rng rng(13);
    Graph g = generateUniform(rng, 1000, 8);
    Partition p = randomPartition(rng, 1000, 4);
    // Random placement: cross fraction ~ 1 - 1/parts = 0.75.
    EXPECT_NEAR(p.crossEdgeFraction(g), 0.75, 0.05);
}

TEST(ReferencePageRank, RanksSumToOne)
{
    sim::Rng rng(17);
    Graph g = generatePowerLaw(rng, 500, 6);
    auto ranks = referencePageRank(g, 10);
    double sum = 0;
    for (auto r : ranks)
        sum += r;
    // With the out-degree fixup some mass leaks; sum stays near 1.
    EXPECT_GT(sum, 0.5);
    EXPECT_LT(sum, 1.1);
}

struct PageRankFixture : public ::testing::Test
{
    Graph g;
    PageRankConfig cfg;

    void
    SetUp() override
    {
        sim::Rng rng(23);
        g = generatePowerLaw(rng, 1200, 6);
        cfg.supersteps = 2;
        cfg.seed = 42;
    }
};

TEST_F(PageRankFixture, ShmMatchesReferenceExactly)
{
    const auto ref = referencePageRank(g, cfg.supersteps);
    const auto run = runPageRankShm(g, 4, cfg);
    EXPECT_LT(maxAbsDiff(run.ranks, ref), 1e-12);
    EXPECT_GT(run.elapsed, 0u);
    EXPECT_EQ(run.remoteOps, 0u);
}

TEST_F(PageRankFixture, BulkMatchesReference)
{
    const auto ref = referencePageRank(g, cfg.supersteps);
    sim::Rng rng(29);
    const auto part = randomPartition(rng, g.numVertices, 4);
    const auto run = runPageRankBulk(g, part, cfg);
    EXPECT_LT(maxAbsDiff(run.ranks, ref), 1e-12);
    EXPECT_GT(run.remoteOps, 0u);
}

TEST_F(PageRankFixture, FineGrainMatchesReference)
{
    const auto ref = referencePageRank(g, cfg.supersteps);
    sim::Rng rng(31);
    const auto part = randomPartition(rng, g.numVertices, 4);
    const auto run = runPageRankFine(g, part, cfg);
    // Floating-point summation order differs (async accumulation).
    EXPECT_LT(maxAbsDiff(run.ranks, ref), 1e-9);
    // Remote ops scale with cross-partition edges, not vertices (§7.5).
    EXPECT_GT(run.remoteOps, g.numVertices);
}

TEST_F(PageRankFixture, MoreNodesRunFasterThanOne)
{
    cfg.supersteps = 1;
    const auto t1 = runPageRankShm(g, 1, cfg).elapsed;
    sim::Rng rng(37);
    const auto part4 = randomPartition(rng, g.numVertices, 4);
    const auto bulk4 = runPageRankBulk(g, part4, cfg).elapsed;
    EXPECT_LT(bulk4, t1);
    // Speedup should be material (not linear: at this tiny test scale
    // the per-superstep pulls and barriers are a large fixed cost; the
    // fig9 bench validates the paper-scale shape).
    EXPECT_GT(static_cast<double>(t1) / static_cast<double>(bulk4), 1.3);
}

TEST_F(PageRankFixture, FineGrainSlowerThanBulk)
{
    cfg.supersteps = 1;
    sim::Rng rng(41);
    const auto part = randomPartition(rng, g.numVertices, 4);
    const auto bulk = runPageRankBulk(g, part, cfg).elapsed;
    const auto fine = runPageRankFine(g, part, cfg).elapsed;
    // Paper Fig. 9: fine-grain has noticeably greater overheads.
    EXPECT_GT(fine, bulk);
}

} // namespace
