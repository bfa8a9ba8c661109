/**
 * @file
 * Figure 9: PageRank speedup relative to a single thread.
 *
 *  left:  simulated hardware, 2/4/8 nodes (one superstep, as the paper
 *         did on its cycle-accurate platform), three implementations:
 *         SHM(pthreads), soNUMA(bulk), soNUMA(fine-grain)
 *  right: development platform, 2/4/8/16 nodes
 *
 * Paper shape: SHM and bulk track each other closely (speedup set by
 * partition imbalance), fine-grain trails because each cross-partition
 * edge costs a remote read bounded by the per-core op rate.
 *
 * All soNUMA runs execute on the API-v2 Workload runtime (one
 * coroutine per node, §5.3 barrier alignment; src/app/pagerank.cc).
 * The rack-scale study (64-512 nodes on 3D tori) is the "pagerank"
 * workload of bench_sweep.
 *
 * Workload substitution (src/app/README.md, app/graph.hh): deterministic
 * power-law graph in place of the paper's Twitter subset. --out=PATH
 * also writes the tables as JSON, one row per node count and platform.
 */

#include <cinttypes>
#include <cstdio>
#include <string>

#include "app/graph.hh"
#include "app/pagerank.hh"
#include "bench/common.hh"
#include "sim/json.hh"

namespace {

using namespace sonuma;
using namespace sonuma::app;

/** Print one side's table and append its rows to @p w. */
void
runSide(const char *title, const Graph &g, const PageRankConfig &cfg,
        const std::vector<std::uint32_t> &nodeCounts,
        const rmc::RmcParams &rmcParams, sim::JsonWriter &w)
{
    std::printf("\n# %s (V=%u, E=%" PRIu64 ", supersteps=%u)\n", title,
                g.numVertices, g.numEdges(), cfg.supersteps);

    const auto base = runPageRankShm(g, 1, cfg);
    const double t1 = static_cast<double>(base.elapsed);
    std::printf("# 1-thread baseline: %.2f us\n",
                sim::ticksToUs(base.elapsed));
    std::printf("%-8s %14s %14s %18s %16s\n", "nodes", "SHM(pthreads)",
                "soNUMA(bulk)", "soNUMA(fine-grain)", "fine remote-ops");

    for (const std::uint32_t n : nodeCounts) {
        const auto shm = runPageRankShm(g, n, cfg);
        sim::Rng prng(cfg.seed + n);
        const auto part = randomPartition(prng, g.numVertices, n);
        const auto bulk = runPageRankBulk(g, part, cfg, rmcParams);
        const auto fine = runPageRankFine(g, part, cfg, rmcParams);
        const double shmX = t1 / static_cast<double>(shm.elapsed);
        const double bulkX = t1 / static_cast<double>(bulk.elapsed);
        const double fineX = t1 / static_cast<double>(fine.elapsed);
        std::printf("%-8u %14.2f %14.2f %18.2f %16" PRIu64 "\n", n, shmX,
                    bulkX, fineX, fine.remoteOps);
        w.beginObject()
            .field("nodes", n)
            .field("vertices", g.numVertices)
            .field("baseline_us", sim::ticksToUs(base.elapsed))
            .field("speedup_shm", shmX)
            .field("speedup_bulk", bulkX)
            .field("speedup_fine", fineX)
            .field("fine_remote_ops", fine.remoteOps);
        node::EventCounts events;
        for (const auto *run : {&shm, &bulk, &fine})
            events.add(run->events);
        events.write(w);
        w.endObject();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv, {"out"});
    const std::string out = args.get("out", "");

    // The vertex data (V x 64 B) stays well above the largest aggregate
    // LLC in the sweep, as in the paper (no speedup attributable to
    // cache capacity).
    sim::Rng grng(7);
    const Graph g = generatePowerLaw(grng, /*vertices=*/32768,
                                     /*avgDegree=*/16);

    // The development platform's software RMC moves data ~40x slower
    // than the simulated hardware while cores run at native speed, so
    // its side runs a half-size graph (still larger than every
    // aggregate LLC in the sweep) to stay simulatable. The paper's own
    // caveat applies: "the higher latency and lower bandwidth of the
    // development platform limit performance" relative to SHM.
    sim::Rng erng(8);
    const Graph gEmu = generatePowerLaw(erng, /*vertices=*/16384,
                                        /*avgDegree=*/16);

    std::printf("# Fig. 9: PageRank speedup over 1 thread "
                "(power-law graph, random partition)\n");

    sim::JsonWriter w;
    w.beginArtifact("fig9_pagerank");
    w.key("hw").beginArray();
    {
        PageRankConfig cfg;
        cfg.supersteps = 1; // as the paper ran on the simulated hardware
        // One untimed warm-up superstep removes cold-start artifacts the
        // paper's long runs amortized.
        cfg.warmupSupersteps = 1;
        // Cache-to-dataset scaling: the paper's Twitter subset dwarfed
        // every cache configuration, so vertex loads are memory bound.
        // With the graph scaled down ~50x, the LLC scales with it to
        // stay in the same regime.
        cfg.l2PerUnitBytes = 128 * 1024;
        cfg.seed = 11;
        runSide("left: simulated hardware", g, cfg, {2, 4, 8},
                rmc::RmcParams::simulatedHardware(), w);
    }
    w.endArray().key("emu").beginArray();
    {
        PageRankConfig cfg;
        // The paper ran 30 supersteps at wall-clock speed; our dev
        // platform is itself simulated, so we run one measured
        // superstep after warm-up (the per-superstep shape is what
        // matters).
        cfg.supersteps = 1;
        cfg.warmupSupersteps = 1;
        cfg.seed = 13;
        cfg.l2PerUnitBytes = 32 * 1024; // scaled with the smaller graph
        runSide("right: development platform", gEmu, cfg, {2, 4, 8, 16},
                rmc::RmcParams::emulationPlatform(), w);
    }
    w.endArray().endObject();
    std::printf("\n# paper shape: SHM ~= bulk; fine-grain noticeably "
                "lower (per-core remote-op rate bound)\n");
    if (!out.empty())
        sim::writeFile(out, w.str());
    return 0;
}
