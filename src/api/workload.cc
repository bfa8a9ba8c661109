/**
 * @file
 * Workload runtime implementation.
 */

#include "api/workload.hh"

#include <stdexcept>

namespace sonuma::api {

Workload::Workload(TestBed &bed, std::string scope)
    : bed_(bed), scope_(std::move(scope))
{
    const std::uint32_t n = bed_.nodes();
    if (bed_.segBytes() < Barrier::regionBytes(n))
        throw std::invalid_argument(
            "Workload: segmentPerNode too small for the barrier region "
            "(need " + std::to_string(Barrier::regionBytes(n)) +
            " bytes for " + std::to_string(n) + " nodes)");

    std::vector<sim::NodeId> all(n);
    for (std::uint32_t i = 0; i < n; ++i)
        all[i] = static_cast<sim::NodeId>(i);

    ctxs_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        ctxs_[i].wl_ = this;
        ctxs_[i].node_ = i;
        // The barrier gets a QP of its own so its fire-and-forget
        // announcement writes never contend with application windows.
        // One QP and no batching regardless of the node defaults: its
        // announcements are single posts that must reach the wire
        // immediately, and multi-QP fan-out would only burn CT slots.
        SessionParams barrierParams;
        barrierParams.qpCount = 1;
        barrierParams.doorbellBatching = false;
        barriers_.push_back(std::make_unique<Barrier>(
            bed_.newSession(i, 0, barrierParams), all, bed_.segBase(i),
            /*regionOffset=*/0));
        // Under a fault plan, a barrier announcement written to a dead
        // peer is lost; re-announcing makes the barrier converge once
        // the peer recovers. Healthy runs keep the event-driven wait.
        if (bed_.faultsActive())
            barriers_.back()->enableReannounce(sim::usToTicks(50));
    }
}

Workload &
Workload::onEachNode(Fn fn)
{
    fn_ = std::move(fn);
    return *this;
}

sim::Counter &
Workload::NodeCtx::counter(const std::string &name)
{
    Workload &w = *wl_;
    const std::string full =
        w.scope_ + ".node" + std::to_string(node_) + "." + name;
    if (const auto *existing = w.bed_.sim().stats().counter(full))
        return *const_cast<sim::Counter *>(existing);
    w.counters_.emplace_back(w.bed_.sim().stats(), full,
                             "workload counter");
    return w.counters_.back();
}

sim::Histogram &
Workload::NodeCtx::histogram(const std::string &name)
{
    Workload &w = *wl_;
    const std::string full =
        w.scope_ + ".node" + std::to_string(node_) + "." + name;
    if (const auto *existing = w.bed_.sim().stats().histogram(full))
        return *const_cast<sim::Histogram *>(existing);
    w.histograms_.emplace_back(w.bed_.sim().stats(), full,
                               "workload histogram");
    return w.histograms_.back();
}

sim::Task
Workload::nodeMain(std::uint32_t i)
{
    co_await barriers_[i]->arrive();
    if (i == 0)
        start_ = bed_.sim().now();
    co_await fn_(ctxs_[i]);
    co_await barriers_[i]->arrive();
    if (i == 0)
        end_ = bed_.sim().now();
}

sim::Tick
Workload::run()
{
    if (!fn_)
        throw std::invalid_argument("Workload: onEachNode() not set");
    for (std::uint32_t i = 0; i < bed_.nodes(); ++i)
        bed_.spawn(nodeMain(i));
    const sim::Tick t = bed_.run();
    if (!bed_.sim().allRootsDone())
        throw std::runtime_error(
            "Workload: simulation quiesced with node coroutines still "
            "suspended — a permanent fault (dead node or link) left ops "
            "that can neither complete nor time out; give the plan a "
            "recovery event or enable a retry policy");
    return t;
}

} // namespace sonuma::api
