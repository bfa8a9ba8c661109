/**
 * @file
 * PageRank runners (SHM, soNUMA bulk, soNUMA fine-grain).
 *
 * The soNUMA sides run on the API-v2 Workload runtime: one coroutine
 * per node on a declaratively-built TestBed, §5.3 barrier alignment
 * via Workload's NodeCtx, per-node stats under the workload scope.
 * PageRankFineWorkload is the shared core the sweep's "pagerank"
 * workload (app/sweep.cc) drives at 64-512 nodes (FIG9 artifacts).
 */

#include "app/pagerank.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>

#include "api/barrier.hh"
#include "api/session.hh"
#include "api/workload.hh"
#include "node/cluster.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"

namespace sonuma::app {

namespace {

/** Per-node view of the partitioned graph. */
struct NodeGraph
{
    struct Ref
    {
        std::uint32_t part;
        std::uint32_t localIdx;
    };

    std::vector<std::uint32_t> rowPtr; //!< per local vertex
    std::vector<Ref> refs;             //!< in-neighbors of local vertices
};

NodeGraph
buildNodeGraph(const Graph &g, const Partition &part, std::uint32_t p)
{
    NodeGraph ng;
    const auto &mine = part.members[p];
    ng.rowPtr.reserve(mine.size() + 1);
    ng.rowPtr.push_back(0);
    for (const std::uint32_t v : mine) {
        for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1]; ++e) {
            const std::uint32_t u = g.inNeighbor[e];
            ng.refs.push_back(
                NodeGraph::Ref{part.owner[u], part.localIndex[u]});
        }
        ng.rowPtr.push_back(static_cast<std::uint32_t>(ng.refs.size()));
    }
    return ng;
}

/** Initialize a vertex array in simulated memory. */
void
initVertexArray(vm::AddressSpace &as, vm::VAddr base,
                const std::vector<std::uint32_t> &vertices, const Graph &g)
{
    const double init = 1.0 / g.numVertices;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        VertexData vd{};
        vd.rank[0] = init;
        vd.rank[1] = 0.0;
        vd.outDegree = g.outDegree[vertices[i]];
        as.write(base + i * sizeof(VertexData), &vd, sizeof(vd));
    }
}

} // namespace

//
// ------------------------- SHM (pthreads) ------------------------------
//

PageRankRun
runPageRankShm(const Graph &g, std::uint32_t threads,
               const PageRankConfig &cfg)
{
    sim::Simulation sim(cfg.seed);
    node::ClusterParams cp;
    cp.nodes = 1;
    cp.node.cores = threads;
    // Aggregate LLC equal to `threads` soNUMA nodes (paper §7.5(i)).
    cp.node.l2.sizeBytes = cfg.l2PerUnitBytes * threads;
    node::Cluster cluster(sim, cp);
    auto &nd = cluster.node(0);
    auto &proc = nd.os().createProcess(0);

    const vm::VAddr varr =
        proc.alloc(std::uint64_t(g.numVertices) * sizeof(VertexData));
    std::vector<std::uint32_t> all(g.numVertices);
    for (std::uint32_t v = 0; v < g.numVertices; ++v)
        all[v] = v;
    initVertexArray(proc.addressSpace(), varr, all, g);

    sim::LocalBarrier barrier(sim.eq(), threads);
    sim::Tick start = 0, end = 0;

    auto worker = [&](std::uint32_t tid) -> sim::Task {
        auto &core = nd.core(tid);
        core.attachProcess(proc);
        auto &as = proc.addressSpace();
        const std::uint32_t lo =
            static_cast<std::uint32_t>(std::uint64_t(g.numVertices) * tid /
                                       threads);
        const std::uint32_t hi = static_cast<std::uint32_t>(
            std::uint64_t(g.numVertices) * (tid + 1) / threads);

        co_await barrier.arrive();

        const std::uint32_t total =
            cfg.warmupSupersteps + cfg.supersteps;
        for (std::uint32_t step = 0; step < total; ++step) {
            if (tid == 0 && step == cfg.warmupSupersteps)
                start = sim.now();
            const int readPar = static_cast<int>(step % 2);
            const int writePar = 1 - readPar;
            for (std::uint32_t v = lo; v < hi; ++v) {
                co_await core.compute(cfg.vertexComputeCycles);
                double acc = (1.0 - cfg.damping) / g.numVertices;
                for (std::uint32_t e = g.rowPtr[v]; e < g.rowPtr[v + 1];
                     ++e) {
                    const std::uint32_t u = g.inNeighbor[e];
                    const vm::VAddr ua = varr + std::uint64_t(u) * 64;
                    co_await core.load(ua);
                    co_await core.compute(cfg.edgeComputeCycles);
                    VertexData ud;
                    as.read(ua, &ud, sizeof(ud));
                    acc += cfg.damping * ud.rank[readPar] /
                           static_cast<double>(ud.outDegree);
                }
                const vm::VAddr va = varr + std::uint64_t(v) * 64;
                co_await core.store(va);
                VertexData vd;
                as.read(va, &vd, sizeof(vd));
                vd.rank[writePar] = acc;
                as.write(va, &vd, sizeof(vd));
            }
            co_await barrier.arrive();
        }
        if (tid == 0)
            end = sim.now();
    };

    for (std::uint32_t t = 0; t < threads; ++t)
        sim.spawn(worker(t));
    sim.run();

    PageRankRun run;
    run.elapsed = end - start;
    run.remoteOps = 0;
    run.events.add(cluster);
    run.ranks.resize(g.numVertices);
    const int finalPar = static_cast<int>(
        (cfg.warmupSupersteps + cfg.supersteps) % 2);
    for (std::uint32_t v = 0; v < g.numVertices; ++v) {
        VertexData vd;
        proc.addressSpace().read(varr + std::uint64_t(v) * 64, &vd,
                                 sizeof(vd));
        run.ranks[v] = vd.rank[finalPar];
    }
    return run;
}

//
// ---------------- shared soNUMA scaffolding (Workload runtime) ---------
//

namespace {

/** The P-node soNUMA deployment both runners use (paper §7.5(i)). */
api::ClusterSpec
soNumaSpec(const PageRankConfig &cfg, const rmc::RmcParams &rmcParams,
           std::uint32_t parts, std::uint64_t segBytes)
{
    return api::ClusterSpec{}
        .nodes(parts)
        .coresPerNode(1)
        .l2PerNode(cfg.l2PerUnitBytes)
        .rmc(rmcParams)
        .segmentPerNode(segBytes)
        .seed(cfg.seed);
}

/** Largest per-node vertex count (partitions differ by at most one). */
std::uint64_t
maxOwnedVertices(const Partition &part)
{
    std::uint64_t owned = 0;
    for (const auto &members : part.members)
        owned = std::max<std::uint64_t>(owned, members.size());
    return owned;
}

/** Gather final ranks out of the TestBed's simulated memories. */
std::vector<double>
gatherRanks(api::TestBed &bed, const Graph &g, const Partition &part,
            std::uint64_t vtxOff, int finalPar)
{
    std::vector<double> ranks(g.numVertices);
    for (std::uint32_t p = 0; p < part.parts; ++p) {
        auto &as = bed.process(p).addressSpace();
        const vm::VAddr vtxVa = bed.segBase(p) + vtxOff;
        for (std::size_t i = 0; i < part.members[p].size(); ++i) {
            VertexData vd;
            as.read(vtxVa + i * sizeof(VertexData), &vd, sizeof(vd));
            ranks[part.members[p][i]] = vd.rank[finalPar];
        }
    }
    return ranks;
}

/** Sum the per-node RMC abort/error counters into @p run. */
void
collectRmcErrors(sim::Simulation &sim, std::uint32_t parts,
                 PageRankRun *run)
{
    for (std::uint32_t p = 0; p < parts; ++p) {
        const std::string prefix = "node" + std::to_string(p) + ".rmc.";
        if (const auto *c = sim.stats().counter(prefix + "failureAborts"))
            run->aborts += c->value();
        if (const auto *c =
                sim.stats().counter(prefix + "rrpp.boundsErrors"))
            run->errors += c->value();
        if (const auto *c = sim.stats().counter(prefix + "rrpp.badContext"))
            run->errors += c->value();
    }
}

} // namespace

//
// ------------------------ soNUMA (fine-grain) --------------------------
//

struct PageRankFineWorkload::State
{
    const Graph &g;
    const Partition &part;
    PageRankConfig cfg;
    std::vector<NodeGraph> ng;    //!< per node
    std::uint64_t vtxOff;         //!< barrier region bytes
    sim::Tick start = 0, end = 0; //!< measured region (node 0)
    std::uint64_t remoteOps = 0;  //!< all supersteps (incl. warm-up)
    std::uint64_t measuredRemoteOps = 0; //!< post-warm-up only

    State(const Graph &graph, const Partition &partition,
          const PageRankConfig &config)
        : g(graph), part(partition), cfg(config),
          vtxOff(api::Barrier::regionBytes(partition.parts))
    {
        ng.reserve(part.parts);
        for (std::uint32_t p = 0; p < part.parts; ++p)
            ng.push_back(buildNodeGraph(g, part, p));
    }
};

PageRankFineWorkload::PageRankFineWorkload(const Graph &g,
                                           const Partition &part,
                                           const PageRankConfig &cfg)
    : st_(std::make_unique<State>(g, part, cfg))
{}

PageRankFineWorkload::~PageRankFineWorkload() = default;

std::uint64_t
PageRankFineWorkload::segmentBytesNeeded() const
{
    return st_->vtxOff +
           maxOwnedVertices(st_->part) * sizeof(VertexData);
}

void
PageRankFineWorkload::install(api::TestBed &bed, api::Workload &wl)
{
    State *st = st_.get();
    if (bed.nodes() != st->part.parts)
        throw std::invalid_argument(
            "PageRankFineWorkload: TestBed has " +
            std::to_string(bed.nodes()) + " nodes but the partition has " +
            std::to_string(st->part.parts) + " parts");
    if (bed.segBytes() < segmentBytesNeeded())
        throw std::invalid_argument(
            "PageRankFineWorkload: segmentPerNode " +
            std::to_string(bed.segBytes()) + " < " +
            std::to_string(segmentBytesNeeded()) +
            " bytes needed for the barrier region plus owned vertices");

    // Seed every node's owned vertex array (functional: the paper's
    // setup phase is not part of the timed supersteps).
    for (std::uint32_t p = 0; p < st->part.parts; ++p)
        initVertexArray(bed.process(p).addressSpace(),
                        bed.segBase(p) + st->vtxOff, st->part.members[p],
                        st->g);

    wl.onEachNode([st](api::Workload::NodeCtx &ctx) -> sim::Task {
        const std::uint32_t p = ctx.nodeId();
        auto &session = ctx.session();
        auto &core = session.core();
        auto &as = session.process().addressSpace();
        auto &ops = ctx.counter("ops");
        auto &lat = ctx.histogram("opLatencyNs");
        const NodeGraph &ng = st->ng[p];
        const PageRankConfig &cfg = st->cfg;
        const Graph &g = st->g;
        const vm::VAddr vtxVa = ctx.segBase() + st->vtxOff;

        // Per-slot landing lines + a FIFO of pending reads carrying the
        // paper's async_dest_addr context alongside each OpHandle.
        struct PendingRead
        {
            api::OpHandle h;
            std::uint32_t vLocal;
            int readPar;
            int writePar;
        };
        std::deque<PendingRead> pendingReads;
        const std::uint32_t depth = session.queueDepth();
        const vm::VAddr lbuf =
            session.allocBuffer(std::uint64_t(depth) * 64);
        // Warm-up supersteps are untimed, so their ops and latency
        // samples must not enter the measured stats either (the
        // Outcome's ops are divided by the measured region). A posted
        // read always retires within its own superstep (drain at the
        // superstep end), so one flag suffices.
        bool measuring = cfg.warmupSupersteps == 0;

        // Retiring one read runs the paper's pagerank_async handler:
        // await the fetched vertex, accumulate into the target's rank.
        // Lost packets are the RMC's to retransmit; a read that still
        // fails would make the rank sum silently drift, so it is fatal.
        auto &ok = ctx.counter("okOps");
        auto retireFront = [&]() -> sim::Task {
            const PendingRead pr = pendingReads.front();
            pendingReads.pop_front();
            const api::OpResult r = co_await pr.h;
            if (!r.ok())
                sim::fatal("pagerank remote read failed");
            if (measuring)
                ok.inc();
            if (measuring)
                lat.sample(sim::ticksToNs(r.latency));
            VertexData nb;
            as.read(lbuf + std::uint64_t(pr.h.slot()) * 64, &nb,
                    sizeof(nb));
            const double contrib = cfg.damping * nb.rank[pr.readPar] /
                                   static_cast<double>(nb.outDegree);
            const vm::VAddr va = vtxVa + std::uint64_t(pr.vLocal) * 64;
            VertexData vd;
            as.read(va, &vd, sizeof(vd));
            vd.rank[pr.writePar] += contrib;
            as.write(va, &vd, sizeof(vd));
        };

        const auto &mine = st->part.members[p];
        const std::uint32_t total =
            cfg.warmupSupersteps + cfg.supersteps;
        for (std::uint32_t step = 0; step < total; ++step) {
            if (p == 0 && step == cfg.warmupSupersteps)
                st->start = ctx.sim().now();
            measuring = step >= cfg.warmupSupersteps;
            const int readPar = static_cast<int>(step % 2);
            const int writePar = 1 - readPar;

            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(mine.size()); ++i) {
                co_await core.compute(cfg.vertexComputeCycles);
                const vm::VAddr va = vtxVa + std::uint64_t(i) * 64;

                // Seed the write-parity rank before any async completion
                // can accumulate into it (Fig. 4's first statement).
                co_await core.store(va);
                {
                    VertexData vd;
                    as.read(va, &vd, sizeof(vd));
                    vd.rank[writePar] =
                        (1.0 - cfg.damping) / g.numVertices;
                    as.write(va, &vd, sizeof(vd));
                }

                double acc = 0.0;
                for (std::uint32_t e = ng.rowPtr[i]; e < ng.rowPtr[i + 1];
                     ++e) {
                    const auto &ref = ng.refs[e];
                    if (ref.part == p) {
                        // Shared-memory path within the node.
                        const vm::VAddr ua =
                            vtxVa + std::uint64_t(ref.localIdx) * 64;
                        co_await core.load(ua);
                        co_await core.compute(cfg.edgeComputeCycles);
                        VertexData ud;
                        as.read(ua, &ud, sizeof(ud));
                        acc += cfg.damping * ud.rank[readPar] /
                               static_cast<double>(ud.outDegree);
                    } else {
                        // Explicit remote memory path (Fig. 4). A full
                        // window retires its oldest read before posting
                        // so the WQ slot (and landing line) can be
                        // recycled safely (see session.hh).
                        while (pendingReads.size() >= depth)
                            co_await retireFront();
                        const std::uint32_t slot = session.nextSlot();
                        api::OpHandle h = co_await session.readAsync(
                            static_cast<sim::NodeId>(ref.part),
                            st->vtxOff + std::uint64_t(ref.localIdx) * 64,
                            lbuf + std::uint64_t(slot) * 64, 64);
                        pendingReads.push_back(
                            PendingRead{h, i, readPar, writePar});
                        ++st->remoteOps;
                        if (measuring) {
                            // Stats cover the measured region only, so
                            // the pooled counter, the latency sample
                            // count and the cell's JSON ops all agree.
                            ops.inc();
                            ++st->measuredRemoteOps;
                        }
                        // Absorb completions the post just reaped.
                        while (!pendingReads.empty() &&
                               pendingReads.front().h.done())
                            co_await retireFront();
                    }
                }
                if (acc != 0.0) {
                    co_await core.store(va);
                    VertexData vd;
                    as.read(va, &vd, sizeof(vd));
                    vd.rank[writePar] += acc;
                    as.write(va, &vd, sizeof(vd));
                }
            }
            co_await session.drain();
            while (!pendingReads.empty())
                co_await retireFront();
            co_await ctx.barrier();
        }
        if (p == 0)
            st->end = ctx.sim().now();
    });
}

PageRankRun
PageRankFineWorkload::collect(api::TestBed &bed) const
{
    PageRankRun run;
    run.elapsed = st_->end - st_->start;
    run.remoteOps = st_->remoteOps;
    run.measuredRemoteOps = st_->measuredRemoteOps;
    collectRmcErrors(bed.sim(), st_->part.parts, &run);
    run.ranks = gatherRanks(
        bed, st_->g, st_->part, st_->vtxOff,
        static_cast<int>(
            (st_->cfg.warmupSupersteps + st_->cfg.supersteps) % 2));
    return run;
}

PageRankRun
runPageRankFine(const Graph &g, const Partition &part,
                const PageRankConfig &cfg, const rmc::RmcParams &rmcParams)
{
    PageRankFineWorkload pr(g, part, cfg);
    api::TestBed bed(soNumaSpec(cfg, rmcParams, part.parts,
                                pr.segmentBytesNeeded()));
    api::Workload wl(bed, "pagerank");
    pr.install(bed, wl);
    wl.run();
    PageRankRun run = pr.collect(bed);
    run.events.add(bed.cluster());
    return run;
}

//
// --------------------------- soNUMA (bulk) -----------------------------
//

PageRankRun
runPageRankBulk(const Graph &g, const Partition &part,
                const PageRankConfig &cfg, const rmc::RmcParams &rmcParams)
{
    const std::uint32_t P = part.parts;
    const std::uint64_t vtxOff = api::Barrier::regionBytes(P);
    api::TestBed bed(soNumaSpec(
        cfg, rmcParams, P,
        vtxOff + maxOwnedVertices(part) * sizeof(VertexData)));

    std::vector<NodeGraph> ng;
    ng.reserve(P);
    for (std::uint32_t p = 0; p < P; ++p) {
        ng.push_back(buildNodeGraph(g, part, p));
        initVertexArray(bed.process(p).addressSpace(),
                        bed.segBase(p) + vtxOff, part.members[p], g);
    }

    // Local mirror of every peer's vertex array; seeded functionally
    // (the paper's setup phase is not part of the timed supersteps).
    std::vector<std::vector<vm::VAddr>> mirror(P,
                                               std::vector<vm::VAddr>(P));
    for (std::uint32_t p = 0; p < P; ++p) {
        for (std::uint32_t q = 0; q < P; ++q) {
            if (q == p)
                continue;
            mirror[p][q] = bed.process(p).alloc(
                part.members[q].size() * sizeof(VertexData));
            initVertexArray(bed.process(p).addressSpace(), mirror[p][q],
                            part.members[q], g);
        }
    }

    sim::Tick start = 0, end = 0;
    std::uint64_t remoteOps = 0, measuredRemoteOps = 0;

    api::Workload wl(bed, "pagerank");
    wl.onEachNode([&](api::Workload::NodeCtx &ctx) -> sim::Task {
        const std::uint32_t p = ctx.nodeId();
        auto &session = ctx.session();
        auto &core = session.core();
        auto &as = session.process().addressSpace();
        auto &ops = ctx.counter("ops");
        const vm::VAddr vtxVa = ctx.segBase() + vtxOff;

        const auto &mine = part.members[p];
        const std::uint32_t total =
            cfg.warmupSupersteps + cfg.supersteps;
        for (std::uint32_t step = 0; step < total; ++step) {
            if (p == 0 && step == cfg.warmupSupersteps)
                start = ctx.sim().now();
            const int readPar = static_cast<int>(step % 2);
            const int writePar = 1 - readPar;

            // Compute phase: local + mirrored data only.
            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(mine.size()); ++i) {
                co_await core.compute(cfg.vertexComputeCycles);
                double acc = (1.0 - cfg.damping) / g.numVertices;
                for (std::uint32_t e = ng[p].rowPtr[i];
                     e < ng[p].rowPtr[i + 1]; ++e) {
                    const auto &ref = ng[p].refs[e];
                    const vm::VAddr ua =
                        (ref.part == p ? vtxVa : mirror[p][ref.part]) +
                        std::uint64_t(ref.localIdx) * 64;
                    co_await core.load(ua);
                    co_await core.compute(cfg.edgeComputeCycles);
                    VertexData ud;
                    as.read(ua, &ud, sizeof(ud));
                    acc += cfg.damping * ud.rank[readPar] /
                           static_cast<double>(ud.outDegree);
                }
                const vm::VAddr va = vtxVa + std::uint64_t(i) * 64;
                co_await core.store(va);
                VertexData vd;
                as.read(va, &vd, sizeof(vd));
                vd.rank[writePar] = acc;
                as.write(va, &vd, sizeof(vd));
            }

            co_await ctx.barrier();

            // Shuffle phase: pull every peer's vertex array in wide
            // multi-line reads (one WQ entry per chunk).
            for (std::uint32_t q = 0; q < P; ++q) {
                if (q == p)
                    continue;
                const std::uint64_t bytes =
                    part.members[q].size() * sizeof(VertexData);
                std::uint64_t off = 0;
                while (off < bytes) {
                    const auto chunk = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(cfg.bulkChunkBytes,
                                                bytes - off));
                    co_await session.readAsync(
                        static_cast<sim::NodeId>(q), vtxOff + off,
                        mirror[p][q] + off, chunk);
                    ++remoteOps;
                    if (step >= cfg.warmupSupersteps) {
                        ops.inc();
                        ++measuredRemoteOps;
                    }
                    off += chunk;
                }
            }
            co_await session.drain();
            co_await ctx.barrier();
        }
        if (p == 0)
            end = ctx.sim().now();
    });
    wl.run();

    PageRankRun run;
    run.elapsed = end - start;
    run.remoteOps = remoteOps;
    run.measuredRemoteOps = measuredRemoteOps;
    collectRmcErrors(bed.sim(), P, &run);
    run.events.add(bed.cluster());
    run.ranks = gatherRanks(
        bed, g, part, vtxOff,
        static_cast<int>((cfg.warmupSupersteps + cfg.supersteps) % 2));
    return run;
}

} // namespace sonuma::app
