/**
 * @file
 * ClusterSpec / TestBed implementation.
 */

#include "api/testbed.hh"

#include <algorithm>
#include <stdexcept>

namespace sonuma::api {

node::ClusterParams
ClusterSpec::resolve() const
{
    node::ClusterParams p = params_;
    // Room for the segment, queue pairs, scratch buffers and page
    // tables; never below the Table 1 default.
    p.node.physMemBytes =
        std::max<std::uint64_t>(p.node.physMemBytes, 4 * segBytes_);
    node::validate(p);
    return p;
}

TestBed::TestBed(const ClusterSpec &spec)
    : sim_(spec.seedValue()), ctx_(spec.ctx()),
      segBytes_(spec.segmentBytes())
{
    sessionParams_.doorbellBatching = spec.doorbellBatchingValue();
    const node::ClusterParams params = spec.resolve();
    cluster_ = std::make_unique<node::Cluster>(sim_, params);
    nodeCount_ = static_cast<std::uint32_t>(cluster_->nodeCount());
    cluster_->createSharedContext(ctx_);

    if (!spec.faultPlanValue().empty()) {
        // Arm before run(): a malformed plan (bad node id, nonexistent
        // link) throws here with a precise message, not mid-simulation.
        faultInjector_ = std::make_unique<fab::FaultInjector>(
            sim_.eq(), cluster_->fabric(), spec.faultPlanValue());
        faultInjector_->arm();
    }

    procs_.resize(nodeCount_);
    segBases_.resize(nodeCount_);
    for (std::uint32_t i = 0; i < nodeCount_; ++i) {
        auto &nd = cluster_->node(i);
        procs_[i] = &nd.os().createProcess(/*uid=*/0);
        segBases_[i] = procs_[i]->alloc(segBytes_);
        nd.driver().openContext(*procs_[i], ctx_);
        nd.driver().registerSegment(*procs_[i], ctx_, segBases_[i],
                                    segBytes_);
    }
}

os::Process &
TestBed::process(std::uint32_t nodeIdx)
{
    return *procs_.at(nodeIdx);
}

vm::VAddr
TestBed::segBase(std::uint32_t nodeIdx) const
{
    return segBases_.at(nodeIdx);
}

RmcSession &
TestBed::session(std::uint32_t nodeIdx, std::uint32_t core)
{
    auto it = primary_.find({nodeIdx, core});
    if (it != primary_.end())
        return *it->second;
    RmcSession &s = newSession(nodeIdx, core);
    primary_.emplace(std::make_pair(nodeIdx, core), &s);
    return s;
}

RmcSession &
TestBed::newSession(std::uint32_t nodeIdx, std::uint32_t core)
{
    return newSession(nodeIdx, core, sessionParams_);
}

RmcSession &
TestBed::newSession(std::uint32_t nodeIdx, std::uint32_t core,
                    const SessionParams &params)
{
    auto &nd = cluster_->node(nodeIdx);
    sessions_.push_back(std::make_unique<RmcSession>(
        nd.core(core), nd.driver(), *procs_.at(nodeIdx), ctx_, params));
    return *sessions_.back();
}

} // namespace sonuma::api
