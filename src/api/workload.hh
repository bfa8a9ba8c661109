/**
 * @file
 * Per-node workload runtime.
 *
 * A Workload runs one application coroutine per node of a TestBed with
 * built-in barrier alignment and per-node statistics scoping:
 *
 *   Workload w(bed);
 *   w.onEachNode([&](Workload::NodeCtx &ctx) -> sim::Task {
 *       auto &s = ctx.session();
 *       ...
 *       co_await ctx.barrier();          // cluster-wide sync (§5.3)
 *       ctx.counter("reads").inc();      // "workload.node3.reads"
 *   });
 *   w.run();
 *   // w.elapsed() = ticks between global start and finish barriers
 *
 * Every node's body is bracketed by the one-sided barrier of §5.3, so
 * elapsed() measures the aligned region exactly the way the paper's
 * scaling studies time their supersteps. The barrier region occupies
 * the first Barrier::regionBytes(nodes) bytes of every node's context
 * segment; application data should start at ctx.dataOffset().
 */

#ifndef SONUMA_API_WORKLOAD_HH
#define SONUMA_API_WORKLOAD_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/barrier.hh"
#include "api/testbed.hh"
#include "sim/stats.hh"

namespace sonuma::api {

class Workload
{
  public:
    /** Everything one node's coroutine needs. */
    class NodeCtx
    {
      public:
        std::uint32_t nodeId() const { return node_; }
        std::uint32_t nodes() const { return wl_->bed_.nodes(); }
        TestBed &bed() { return wl_->bed_; }
        sim::Simulation &sim() { return wl_->bed_.sim(); }

        /** This node's application session (TestBed primary). */
        RmcSession &session() { return wl_->bed_.session(node_); }

        vm::VAddr segBase() const { return wl_->bed_.segBase(node_); }

        /** First segment byte past the workload's barrier region. */
        std::uint64_t
        dataOffset() const
        {
            return Barrier::regionBytes(wl_->bed_.nodes());
        }

        /** Arrive at the cluster-wide one-sided barrier. */
        [[nodiscard]] sim::Task
        barrier()
        {
            return wl_->barriers_[node_]->arrive();
        }

        /** Node-scoped counter: "<scope>.node<i>.<name>". */
        sim::Counter &counter(const std::string &name);

        /** Node-scoped histogram: "<scope>.node<i>.<name>". */
        sim::Histogram &histogram(const std::string &name);

      private:
        friend class Workload;
        Workload *wl_ = nullptr;
        std::uint32_t node_ = 0;
    };

    using Fn = std::function<sim::Task(NodeCtx &)>;

    /**
     * @param bed the cluster to run on. Each node's context segment
     *        must be at least Barrier::regionBytes(bed.nodes()) bytes.
     * @param scope stat-name prefix (default "workload")
     */
    explicit Workload(TestBed &bed, std::string scope = "workload");

    /** Register the per-node body. */
    Workload &onEachNode(Fn fn);

    /**
     * Spawn one coroutine per node (bracketed by start/finish barriers)
     * and run the simulation to quiescence. Throws if the simulation
     * quiesces with node coroutines still suspended (a permanent fault
     * with no recovery event). @return final tick.
     */
    sim::Tick run();

    /** Ticks between the global start and finish barriers. */
    sim::Tick elapsed() const { return end_ - start_; }

  private:
    friend class NodeCtx;

    TestBed &bed_;
    std::string scope_;
    Fn fn_;
    std::vector<std::unique_ptr<Barrier>> barriers_;
    std::vector<NodeCtx> ctxs_;
    // Deques: stable addresses for registry-held stat pointers.
    std::deque<sim::Counter> counters_;
    std::deque<sim::Histogram> histograms_;
    sim::Tick start_ = 0;
    sim::Tick end_ = 0;

    sim::Task nodeMain(std::uint32_t i);
};

} // namespace sonuma::api

#endif // SONUMA_API_WORKLOAD_HH
