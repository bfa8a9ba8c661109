/**
 * @file
 * Parameter-matrix sweep (ROADMAP "workload sweeps" / paper §7.6 scale
 * projection): workload x request size x QP depth x QP count x node
 * count on the torus, one JSON blob per cell on stdout (and per-cell
 * SWEEP_*.json / FIG9_*.json files with --out-dir=...).
 *
 *   $ ./bench_sweep                         # 64-node torus fig9-style
 *   $ ./bench_sweep --nodes=4,16,64 --sizes=64,512,4096 --depths=16,64 \
 *                   --ops=256
 *   $ ./bench_sweep --workload=pagerank --nodes=64,256,512 --ndims=3
 *   $ ./bench_sweep --workload=pagerank --nodes=512 --topo=8x8x8
 *   $ ./bench_sweep --quick                 # smoke-sized matrix
 *
 * Degraded-mode studies add a fault scenario and/or routing policy
 * (cells then land in DEGRADED_*.json instead of SWEEP_/FIG9_):
 *
 *   $ ./bench_sweep --nodes=64 --topo=4x4x4 --faults=node-kill@50us+100us
 *   $ ./bench_sweep --nodes=64 --topo=4x4x4 --routing=adaptive \
 *                   --faults=link-kill@50us
 *   $ ./bench_sweep --nodes=64 --faults=incast
 *
 * Lost packets are recovered by the RMC's timeout-driven
 * retransmission alone (--max-attempts bounds it per transfer).
 *
 * The whole driver is app::SweepDriver; scaling the study to 512 nodes
 * — or swapping the uniform-read kernel for the Fig. 9 PageRank
 * application — is a flag, not a new harness.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "app/sweep.hh"
#include "bench/common.hh"
#include "fabric/router.hh"

using namespace sonuma;

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv,
                     {"workload", "nodes", "topo", "ndims", "sizes",
                      "depths", "qps", "batching", "ops", "out-dir",
                      "quick", "pr-vertices", "pr-degree", "faults",
                      "routing", "max-attempts",
                      "obs-period-ns"});
    const bool quick = args.has("quick");

    app::SweepConfig cfg;
    cfg.workload = args.get("workload", "uniform");
    const bool pagerank = cfg.workload == "pagerank";

    cfg.nodeCounts =
        args.getList("nodes", quick ? (pagerank ? "8" : "4") : "64");
    cfg.requestSizes = args.getList(
        "sizes", quick || pagerank ? "64" : "64,512,4096");
    cfg.qpDepths = args.getList("depths", quick ? "16" : "16,64");
    cfg.qpCounts = args.getList("qps", "1");
    cfg.doorbellBatching = args.getU64("batching", 0) != 0;
    cfg.opsPerNode = args.getU32("ops", quick ? 32 : 128);
    cfg.outDir = args.get("out-dir", "");
    cfg.obsPeriodNs = args.getU64("obs-period-ns", 0);
    cfg.torusDims = args.getDims("topo");
    cfg.torusNdims = args.getU32(
        "ndims", cfg.torusDims.empty() ? 2 : cfg.torusDims.size());

    // Degraded-mode axis: fault scenario, routing policy, attempt budget.
    // The routing name is checked here; SweepDriver::run checks the
    // fault plan against every node count before the first cell. Both
    // errors carry did-you-mean hints.
    cfg.faultSpec = args.get("faults", "none");
    {
        std::string error;
        if (!fab::parseRoutingMode(args.get("routing", "dor"),
                                   &cfg.routing, &error)) {
            std::fprintf(stderr, "--routing: %s\n", error.c_str());
            return 2;
        }
    }

    // RMC-level reliable delivery: per-transfer attempt budget.
    cfg.rmcParams.maxAttempts =
        args.getU32("max-attempts", cfg.rmcParams.maxAttempts);

    // PageRank axis (paper Fig. 9; see src/app/README.md).
    cfg.pagerank.vertices = args.getU32("pr-vertices", quick ? 1024 : 16384);
    cfg.pagerank.degree = args.getU32("pr-degree", quick ? 4 : 8);

    // The sweep studies the rack-scale torus; the crossbar's paper
    // tables are the fig benches.
    cfg.topologies = {node::Topology::kTorus};

    std::printf("# sweep: workload=%s, %zu nodes x %zu topologies x %zu "
                "sizes x %zu depths x %zu qps = %zu cells (ops/node=%u%s)\n",
                cfg.workload.c_str(), cfg.nodeCounts.size(),
                cfg.topologies.size(), cfg.requestSizes.size(),
                cfg.qpDepths.size(), cfg.qpCounts.size(),
                cfg.nodeCounts.size() * cfg.topologies.size() *
                    cfg.requestSizes.size() * cfg.qpDepths.size() *
                    cfg.qpCounts.size(),
                cfg.opsPerNode,
                cfg.doorbellBatching ? ", doorbell batching" : "");
    if (cfg.faultSpec != "none" || cfg.routing != fab::RoutingMode::kDor)
        std::printf("# degraded: faults=%s, routing=%s, max-attempts=%u\n",
                    cfg.faultSpec.c_str(),
                    fab::routingModeName(cfg.routing),
                    cfg.rmcParams.maxAttempts);
    if (pagerank)
        std::printf("# pagerank: V=%u, degree=%u, supersteps=%u, ranks "
                    "verified vs host reference\n",
                    cfg.pagerank.vertices, cfg.pagerank.degree,
                    cfg.pagerank.supersteps);

    app::SweepDriver driver(cfg);
    try {
        const auto cells = driver.run();
        std::printf("# %zu cells done\n", cells.size());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep: %s\n", e.what());
        return 2;
    }
    return 0;
}
