/**
 * @file
 * SweepDriver implementation plus its two workload bodies.
 */

#include "app/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "api/barrier.hh"
#include "api/workload.hh"
#include "app/graph.hh"
#include "app/pagerank.hh"
#include "sim/json.hh"
#include "sim/log.hh"
#include "sim/ring_buffer.hh"
#include "sim/time_series.hh"

namespace sonuma::app {

std::string
SweepCellResult::topologyName() const
{
    if (topology == node::Topology::kCrossbar)
        return "crossbar";
    std::string name = "torus";
    for (std::size_t i = 0; i < torusDims.size(); ++i) {
        name += (i == 0 ? "_" : "x");
        name += std::to_string(torusDims[i]);
    }
    return name;
}

std::string
SweepCellResult::label() const
{
    std::string out = "n";
    out += std::to_string(nodes);
    out += '_';
    out += topologyName();
    out += "_rs" + std::to_string(requestBytes);
    out += "_qd" + std::to_string(qpDepth);
    if (qpCount != 1)
        out += "_qp" + std::to_string(qpCount);
    if (doorbellBatching)
        out += "_db"; // batched runs must not overwrite unbatched cells
    if (workload != "uniform")
        out += "_" + workload;
    if (routing == fab::RoutingMode::kAdaptive)
        out += "_adaptive";
    if (faultScenario != "none")
        out += "_" + fab::FaultPlan::scenarioOf(faultScenario);
    return out;
}

std::string
SweepCellResult::json() const
{
    sim::JsonWriter w;
    w.beginArtifact("sweep")
        .field("workload", workload)
        .field("nodes", nodes)
        .field("topology", topologyName())
        .field("request_bytes", requestBytes)
        .field("qp_depth", qpDepth)
        .field("qp_count", qpCount)
        .field("doorbell_batching", doorbellBatching ? 1 : 0)
        .field("routing", fab::routingModeName(routing))
        .field("fault_scenario", faultScenario)
        .field("ops", ops)
        .field("mops", mops)
        .field("gbps", gbps)
        .field("goodput_mops", goodputMops)
        .field("mean_latency_ns", meanLatencyNs)
        .field("p50_latency_ns", p50LatencyNs)
        .field("p95_latency_ns", p95LatencyNs)
        .field("p99_latency_ns", p99LatencyNs)
        .field("ok_ops", okOps)
        .field("failed_ops", failedOps)
        .field("dropped_messages", droppedMessages)
        .field("retransmits", retransmits)
        .field("dup_suppressed", dupSuppressed)
        .field("unrecoverable", unrecoverable);
    for (const auto &[key, value] : extra)
        w.field(key, value);
    events.write(w);
    w.field("sim_us", simMicros).field("host_seconds", hostSeconds);
    w.endObject();
    return w.str();
}

//
// --------------------------- workload bodies ----------------------------
//

namespace {

/**
 * One sweep workload, instantiated per cell. The driver calls, in
 * order: configure (adjust the cell's ClusterSpec — segment sizing,
 * L2, ...), install (set the Workload body), run, finish (report ops +
 * the measured region), annotate (extra JSON fields).
 */
class SweepWorkload
{
  public:
    virtual ~SweepWorkload() = default;

    /** Adjust the cell's ClusterSpec before the TestBed is built. */
    virtual void configure(api::ClusterSpec &spec,
                           const SweepCellResult &cell,
                           const SweepConfig &cfg) = 0;

    /** Install the per-node body (and any functional pre-run state). */
    virtual void install(api::TestBed &bed, api::Workload &wl,
                         const SweepCellResult &cell,
                         const SweepConfig &cfg) = 0;

    struct Outcome
    {
        std::uint64_t ops = 0;    //!< total remote ops issued
        sim::Tick measured = 0;   //!< measured region; 0 = wl.elapsed()
    };

    /** Called after the workload ran; verify and report. */
    virtual Outcome finish(api::TestBed &bed, const SweepCellResult &cell,
                           const SweepConfig &cfg) = 0;

    /** Append workload-specific JSON fields to the cell. */
    virtual void
    annotate(SweepCellResult &cell) const
    {
        (void)cell;
    }
};

class UniformReadWorkload final : public SweepWorkload
{
  public:
    void
    configure(api::ClusterSpec &spec, const SweepCellResult &cell,
              const SweepConfig &cfg) override
    {
        const std::uint64_t dataOff =
            api::Barrier::regionBytes(cell.nodes);
        if (cfg.segmentBytes < dataOff + 2ull * cell.requestBytes)
            throw std::invalid_argument(
                "SweepDriver: segmentBytes " +
                std::to_string(cfg.segmentBytes) +
                " too small for the barrier region plus " +
                std::to_string(cell.requestBytes) + "-byte reads at " +
                std::to_string(cell.nodes) + " nodes");
        (void)spec;
    }

    void
    install(api::TestBed &bed, api::Workload &wl,
            const SweepCellResult &cell, const SweepConfig &cfg) override
    {
        (void)bed;
        const std::uint32_t ops = cfg.opsPerNode;
        const std::uint32_t requestBytes = cell.requestBytes;
        const std::uint64_t segBytes = cfg.segmentBytes;
        const std::uint32_t nodes = cell.nodes;
        const bool faulted = cfg.faultSpec != "none";
        const bool incast =
            fab::FaultPlan::scenarioOf(cfg.faultSpec) == "incast";
        ops_ = std::uint64_t(nodes) * ops;

        wl.onEachNode([ops, requestBytes, segBytes, nodes, faulted,
                       incast](api::Workload::NodeCtx &ctx) -> sim::Task {
            auto &s = ctx.session();
            auto &issued = ctx.counter("ops");
            auto &lat = ctx.histogram("opLatencyNs");
            auto &ok = ctx.counter("okOps");
            auto &failed = ctx.counter("failedOps");

            const std::uint32_t depth = s.queueDepth();
            const vm::VAddr buf =
                s.allocBuffer(std::uint64_t(depth) * requestBytes);
            const std::uint64_t dataOff = ctx.dataOffset();
            const std::uint64_t span =
                (segBytes - dataOff) / 2 / requestBytes * requestBytes;

            sim::RingBuffer<api::OpHandle> window(depth);
            auto retireFront = [&]() -> sim::Task {
                const api::OpHandle h = window.popFront();
                const api::OpResult r = co_await h;
                if (r.ok()) {
                    ok.inc();
                    lat.sample(sim::ticksToNs(r.latency));
                    co_return;
                }
                if (!faulted)
                    sim::fatal("sweep read failed");
                // The RMC spent the transfer's attempt budget.
                failed.inc();
            };
            for (std::uint32_t i = 0; i < ops; ++i) {
                sim::NodeId peer;
                if (incast) {
                    // All-to-one storm: every node hammers node 0's
                    // RRPP; node 0 keeps the round-robin so its own
                    // reads still have peers.
                    peer = ctx.nodeId() == 0
                               ? static_cast<sim::NodeId>(1 +
                                                          i % (nodes - 1))
                               : static_cast<sim::NodeId>(0);
                } else {
                    peer = static_cast<sim::NodeId>(
                        (ctx.nodeId() + 1 + i % (nodes - 1)) % nodes);
                }
                const std::uint64_t off =
                    dataOff + (std::uint64_t(i) * requestBytes) % span;
                // Full window: retire the oldest handle before its WQ
                // slot can be recycled by the next post (session.hh).
                while (window.size() >= depth)
                    co_await retireFront();
                const std::uint32_t slot = s.nextSlot();
                api::OpHandle h = co_await s.readAsync(
                    peer, off, buf + std::uint64_t(slot) * requestBytes,
                    requestBytes);
                issued.inc();
                window.push(h);
                // Opportunistically retire completed ops as they pass.
                while (!window.empty() && window.front().done())
                    co_await retireFront();
            }
            while (!window.empty())
                co_await retireFront();
        });
    }

    Outcome
    finish(api::TestBed &bed, const SweepCellResult &cell,
           const SweepConfig &cfg) override
    {
        (void)bed;
        (void)cell;
        (void)cfg;
        return Outcome{ops_, 0};
    }

  private:
    std::uint64_t ops_ = 0;
};

/**
 * The Fig. 9 application as a sweep workload: graph + partition built
 * per cell from SweepConfig::pagerank, the fine-grain runner installed
 * on the driver's TestBed/Workload, ranks verified against the host
 * reference, FIG9_<label>.json artifacts.
 */
class PageRankSweepWorkload final : public SweepWorkload
{
  public:
    void
    configure(api::ClusterSpec &spec, const SweepCellResult &cell,
              const SweepConfig &cfg) override
    {
        // Graph seed of every checked-in FIG9 cell.
        constexpr std::uint64_t kGraphSeed = 7;
        // LLC per node, scaled down with the scaled-down graph so the
        // cache-to-dataset ratio matches the paper's (see
        // bench/fig9_pagerank.cc).
        constexpr std::uint64_t kL2PerNodeBytes = 256 * 1024;

        const auto &axis = cfg.pagerank;
        if (cell.requestBytes != sizeof(VertexData))
            throw std::invalid_argument(
                "pagerank sweep: request size is fixed at " +
                std::to_string(sizeof(VertexData)) +
                " bytes (one vertex record per remote read); got " +
                std::to_string(cell.requestBytes) +
                " — run with --sizes=64");
        if (axis.vertices < cell.nodes)
            throw std::invalid_argument(
                "pagerank sweep: " + std::to_string(axis.vertices) +
                " vertices cannot be partitioned over " +
                std::to_string(cell.nodes) + " nodes");
        sim::Rng grng(kGraphSeed);
        g_ = generatePowerLaw(grng, axis.vertices, axis.degree);
        sim::Rng prng(kGraphSeed + cell.nodes);
        part_ = randomPartition(prng, g_.numVertices, cell.nodes);

        prCfg_.supersteps = axis.supersteps;
        prCfg_.seed = cfg.seed;
        prCfg_.l2PerUnitBytes = kL2PerNodeBytes;
        spec.l2PerNode(kL2PerNodeBytes);

        fine_ = std::make_unique<PageRankFineWorkload>(g_, part_, prCfg_);
        spec.segmentPerNode(fine_->segmentBytesNeeded());
    }

    void
    install(api::TestBed &bed, api::Workload &wl,
            const SweepCellResult &cell, const SweepConfig &cfg) override
    {
        (void)cell;
        (void)cfg;
        fine_->install(bed, wl);
    }

    Outcome
    finish(api::TestBed &bed, const SweepCellResult &cell,
           const SweepConfig &cfg) override
    {
        (void)cfg;
        run_ = fine_->collect(bed);
        if (run_.aborts != 0 || run_.errors != 0)
            sim::fatal("pagerank sweep cell " + cell.label() + ": " +
                       std::to_string(run_.aborts) + " aborts, " +
                       std::to_string(run_.errors) + " RMC errors");
        const auto ref =
            referencePageRank(g_, prCfg_.supersteps, prCfg_.damping);
        double maxDiff = 0;
        for (std::size_t v = 0; v < ref.size(); ++v)
            maxDiff = std::max(maxDiff, std::abs(run_.ranks[v] - ref[v]));
        if (maxDiff > 1e-9)
            sim::fatal("pagerank sweep cell " + cell.label() +
                       ": ranks diverge from the host reference "
                       "(max |diff| = " + std::to_string(maxDiff) + ")");
        return Outcome{run_.measuredRemoteOps, run_.elapsed};
    }

    void
    annotate(SweepCellResult &cell) const override
    {
        cell.extra.emplace_back("vertices",
                                static_cast<double>(g_.numVertices));
        cell.extra.emplace_back("edges",
                                static_cast<double>(g_.numEdges()));
        cell.extra.emplace_back("supersteps",
                                static_cast<double>(prCfg_.supersteps));
        cell.extra.emplace_back("cross_edge_fraction",
                                part_.crossEdgeFraction(g_));
    }

  private:
    Graph g_;
    Partition part_;
    PageRankConfig prCfg_;
    std::unique_ptr<PageRankFineWorkload> fine_;
    PageRankRun run_;
};

/** The body named by SweepConfig::workload. */
std::unique_ptr<SweepWorkload>
makeWorkload(const std::string &name)
{
    if (name == "uniform")
        return std::make_unique<UniformReadWorkload>();
    if (name == "pagerank")
        return std::make_unique<PageRankSweepWorkload>();
    throw std::invalid_argument("SweepDriver: unknown workload '" + name +
                                "' (valid: uniform, pagerank)");
}

} // namespace

//
// ------------------------- torus factorization -------------------------
//

std::vector<std::uint32_t>
SweepDriver::torusDimsFor(std::uint32_t nodes)
{
    return torusDimsFor(nodes, 2);
}

std::vector<std::uint32_t>
SweepDriver::torusDimsFor(std::uint32_t nodes, std::uint32_t ndims)
{
    // Peel off the largest divisor <= nodes^(1/remaining) each round:
    // radices come out ascending and as near-equal as the node count's
    // factorization allows. Radix-1 dimensions are dropped.
    std::vector<std::uint32_t> dims;
    std::uint32_t rest = nodes;
    for (std::uint32_t d = ndims; d >= 1; --d) {
        if (d == 1) {
            dims.push_back(rest);
            break;
        }
        auto a = static_cast<std::uint32_t>(std::floor(
            std::pow(static_cast<double>(rest), 1.0 / d) + 1e-9));
        while (a > 1 && rest % a != 0)
            --a;
        if (a == 0)
            a = 1;
        dims.push_back(a);
        rest /= a;
    }
    std::erase(dims, 1u);
    return dims;
}

//
// ----------------------------- cell runs -------------------------------
//

fab::FaultPlan
SweepDriver::faultPlan(std::uint32_t nodes) const
{
    fab::FaultPlan plan;
    std::string error;
    if (!fab::FaultPlan::parse(cfg_.faultSpec, nodes, &plan, &error))
        throw std::invalid_argument("SweepDriver: " + error);
    plan.validate(nodes);
    return plan;
}

SweepCellResult
SweepDriver::runCell(std::uint32_t nodes, node::Topology topo,
                     std::uint32_t requestBytes, std::uint32_t qpDepth,
                     std::uint32_t qpCount)
{
    if (nodes < 2)
        throw std::invalid_argument(
            "SweepDriver: cells need >= 2 nodes (remote reads have no "
            "self-loop)");
    if (requestBytes == 0 || requestBytes % sim::kCacheLineBytes != 0)
        throw std::invalid_argument(
            "SweepDriver: request size must be a positive multiple of " +
            std::to_string(sim::kCacheLineBytes) + " bytes (got " +
            std::to_string(requestBytes) + ")");

    const std::unique_ptr<SweepWorkload> body = makeWorkload(cfg_.workload);
    const fab::FaultPlan plan = faultPlan(nodes);

    SweepCellResult cell;
    cell.workload = cfg_.workload;
    cell.nodes = nodes;
    cell.topology = topo;
    cell.requestBytes = requestBytes;
    cell.qpDepth = qpDepth;
    cell.qpCount = qpCount;
    cell.doorbellBatching = cfg_.doorbellBatching;
    cell.faultScenario = cfg_.faultSpec;
    cell.routing = cfg_.routing;
    if (topo == node::Topology::kTorus) {
        cell.torusDims = cfg_.torusDims.empty()
                             ? torusDimsFor(nodes, cfg_.torusNdims)
                             : cfg_.torusDims;
    }

    api::ClusterSpec spec;
    spec.nodes(nodes)
        .context(1)
        .segmentPerNode(cfg_.segmentBytes)
        .rmc(cfg_.rmcParams)
        .qpDepth(qpDepth)
        .qpCount(qpCount)
        .doorbellBatching(cfg_.doorbellBatching)
        .routing(cfg_.routing)
        .seed(cfg_.seed);
    if (cfg_.obsPeriodNs > 0)
        spec.observability(cfg_.obsPeriodNs);
    if (topo == node::Topology::kTorus)
        spec.torus(cell.torusDims);
    if (!plan.empty())
        spec.faultPlan(plan);
    body->configure(spec, cell, cfg_);

    const auto t0 = std::chrono::steady_clock::now();
    api::TestBed bed(spec);
    api::Workload wl(bed, "sweep");
    body->install(bed, wl, cell, cfg_);
    wl.run();

    cell.hostSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    const auto outcome = body->finish(bed, cell, cfg_);
    cell.ops = outcome.ops;
    cell.events.add(bed.cluster().modelEvents(),
                    bed.cluster().peakPendingModelEvents(), cell.ops);
    cell.simMicros =
        sim::ticksToUs(outcome.measured ? outcome.measured : wl.elapsed());
    const double secs = cell.simMicros * 1e-6;
    cell.mops = static_cast<double>(cell.ops) / secs / 1e6;
    cell.gbps = static_cast<double>(cell.ops) * requestBytes * 8.0 /
                secs / 1e9;

    // Pool the per-node histograms so mean and p99 describe the whole
    // cluster's sample population, not any single node's.
    double latSum = 0, latMaxSample = 0;
    std::uint64_t latCount = 0;
    std::vector<std::uint64_t> pooled;
    for (std::uint32_t i = 0; i < nodes; ++i) {
        const auto *h = bed.sim().stats().histogram(
            "sweep.node" + std::to_string(i) + ".opLatencyNs");
        if (!h)
            continue;
        latSum += h->sum();
        latCount += h->count();
        latMaxSample = std::max(latMaxSample, h->max());
        const auto &b = h->buckets();
        if (b.size() > pooled.size())
            pooled.resize(b.size(), 0);
        for (std::size_t j = 0; j < b.size(); ++j)
            pooled[j] += b[j];
    }
    cell.meanLatencyNs = latCount ? latSum / latCount : 0.0;
    cell.p99LatencyNs = sim::Histogram::percentileFromBuckets(
        pooled, latCount, 99.0, latMaxSample);
    cell.p50LatencyNs = sim::Histogram::percentileFromBuckets(
        pooled, latCount, 50.0, latMaxSample);
    cell.p95LatencyNs = sim::Histogram::percentileFromBuckets(
        pooled, latCount, 95.0, latMaxSample);

    // Degraded accounting, pooled from the per-node counters the
    // workload bodies keep (zero when a body doesn't keep them).
    const auto sumCounters = [&](const std::string &name) {
        std::uint64_t total = 0;
        for (std::uint32_t i = 0; i < nodes; ++i)
            if (const auto *c = bed.sim().stats().counter(
                    "sweep.node" + std::to_string(i) + "." + name))
                total += c->value();
        return total;
    };
    cell.okOps = sumCounters("okOps");
    cell.failedOps = sumCounters("failedOps");
    cell.droppedMessages = bed.cluster().fabric().droppedMessages();
    cell.goodputMops = static_cast<double>(cell.okOps) / secs / 1e6;

    // Reliable-delivery counters live on the RMCs, not the workload.
    const auto sumRmcCounters = [&](const std::string &name) {
        std::uint64_t total = 0;
        for (std::uint32_t i = 0; i < nodes; ++i)
            if (const auto *c = bed.sim().stats().counter(
                    "node" + std::to_string(i) + ".rmc." + name))
                total += c->value();
        return total;
    };
    cell.retransmits = sumRmcCounters("retransmits");
    cell.dupSuppressed = sumRmcCounters("rrpp.dupSuppressed");
    cell.unrecoverable = sumRmcCounters("unrecoverable");

    // Drops-vs-lost-ops audit: a dropped packet may be retransmitted
    // (then it is a drop but not a lost op). Every op either completes
    // or is aborted as unrecoverable — anything else means a completion
    // was lost or double-delivered.
    if (cell.workload == "uniform" &&
        fab::FaultPlan::scenarioOf(cell.faultScenario) == "drop" &&
        cell.okOps + cell.unrecoverable != cell.ops)
        sim::fatal("sweep: drop cell accounting broke: ok_ops " +
                   std::to_string(cell.okOps) + " + unrecoverable " +
                   std::to_string(cell.unrecoverable) + " != ops " +
                   std::to_string(cell.ops));

    body->annotate(cell);
    // Render the OBS sidecar while the TestBed (and its registered
    // series) is still alive; the string outlives the cell's models.
    if (cfg_.obsPeriodNs > 0)
        cell.obsJson = sim::renderObsJson(bed.sim().stats(), cell.label(),
                                          cfg_.obsPeriodNs);
    return cell;
}

void
SweepDriver::emit(const SweepCellResult &cell,
                  const std::string &prefix) const
{
    if (cfg_.echo)
        std::cout << cell.json() << std::flush;
    if (cfg_.outDir.empty())
        return;
    sim::writeFile(cfg_.outDir + "/" + prefix + cell.label() + ".json",
                   cell.json());
    // Sampling sidecar (labels are unique across cell families, so one
    // OBS_ namespace cannot collide).
    if (!cell.obsJson.empty())
        sim::writeFile(cfg_.outDir + "/OBS_" + cell.label() + ".json",
                       cell.obsJson);
}

std::vector<SweepCellResult>
SweepDriver::run()
{
    // A plan naming a node that only some cell counts have must fail
    // here, before any cell is printed or written.
    for (const auto nodes : cfg_.nodeCounts)
        faultPlan(nodes);
    const std::string prefix =
        cfg_.workload == "pagerank" ? "FIG9_" : "SWEEP_";
    std::vector<SweepCellResult> results;
    for (const auto nodes : cfg_.nodeCounts)
        for (const auto topo : cfg_.topologies)
            for (const auto size : cfg_.requestSizes)
                for (const auto depth : cfg_.qpDepths)
                    for (const auto qps : cfg_.qpCounts) {
                        results.push_back(
                            runCell(nodes, topo, size, depth, qps));
                        // Degraded cells get their own artifact family
                        // so fault studies never overwrite the healthy
                        // SWEEP_/FIG9_ references.
                        const SweepCellResult &cell = results.back();
                        emit(cell, cell.degraded() ? "DEGRADED_" : prefix);
                    }
    return results;
}

} // namespace sonuma::app
