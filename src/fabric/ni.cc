/**
 * @file
 * Network interface implementation.
 */

#include "fabric/fabric.hh"

namespace sonuma::fab {

NetworkInterface::NetworkInterface(sim::EventQueue &eq,
                                   sim::StatRegistry &stats,
                                   const std::string &name, sim::NodeId id,
                                   Fabric &fabric, const NiParams &params)
    : eq_(eq), id_(id), fabric_(fabric), params_(params),
      sent_(stats, name + ".sent", "messages injected"),
      received_(stats, name + ".received", "messages ejected")
{
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        injectQ_[l] = sim::RingBuffer<PacketId>(params_.injectQueueDepth);
        ejectQ_[l] = sim::RingBuffer<PacketId>(params_.ejectQueueDepth);
    }
    if (stats.samplingEnabled()) {
        ejectDepthProbe_ = std::make_unique<sim::TimeSeries>(
            stats, name + ".ejectDepth", "messages",
            "eject-queue depth (both lanes)",
            sim::TimeSeries::Kind::kGauge, [this] {
                std::size_t depth = 0;
                for (std::size_t l = 0; l < kNumLanes; ++l)
                    depth += ejectQ_[l].size();
                return static_cast<double>(depth);
            });
    }
    fabric_.attach(id_, this);
}

bool
NetworkInterface::trySend(const Message &msg)
{
    const Lane lane = msg.lane();
    if (injectQ_[li(lane)].size() >= params_.injectQueueDepth)
        return false;
    const PacketId id = fabric_.pool_.acquire();
    fabric_.pool_[id] = msg;
    injectQ_[li(lane)].push(id);
    sent_.inc();
    pumpInject(lane);
    return true;
}

bool
NetworkInterface::canSend(Lane lane) const
{
    return injectQ_[li(lane)].size() < params_.injectQueueDepth;
}

void
NetworkInterface::onSendSpace(Lane lane, sim::Callback fn)
{
    sendSpaceCb_[li(lane)] = std::move(fn);
}

void
NetworkInterface::pumpInject(Lane lane)
{
    // tryInject can drop the packet synchronously (dead link at the
    // source, lossy first hop), releasing it and returning its credit,
    // which re-enters here via injectSpaceFreed while its id is still at
    // the front of the queue. The guard makes the nested call a no-op;
    // the outer loop pops the id and picks up the freed credit on its
    // next iteration.
    if (pumping_[li(lane)])
        return;
    pumping_[li(lane)] = true;
    auto &q = injectQ_[li(lane)];
    while (!q.empty() && fabric_.tryInject(q.front())) {
        q.pop();
        if (sendSpaceCb_[li(lane)])
            sendSpaceCb_[li(lane)]();
    }
    pumping_[li(lane)] = false;
}

void
NetworkInterface::injectSpaceFreed(Lane lane)
{
    pumpInject(lane);
}

bool
NetworkInterface::hasMessage(Lane lane) const
{
    return !ejectQ_[li(lane)].empty();
}

Message
NetworkInterface::pop(Lane lane)
{
    const PacketId id = ejectQ_[li(lane)].popFront();
    Message m = fabric_.pool_[id];
    fabric_.pool_.release(id);
    // Space freed: let the fabric hand over a waiting packet / credit.
    fabric_.ejectSpaceFreed(id_, lane);
    return m;
}

void
NetworkInterface::onArrival(Lane lane, sim::Callback fn)
{
    arrivalCb_[li(lane)] = std::move(fn);
}

bool
NetworkInterface::deliver(PacketId id, Lane lane)
{
    if (ejectQ_[li(lane)].size() >= params_.ejectQueueDepth)
        return false;
    ejectQ_[li(lane)].push(id);
    received_.inc();
    if (arrivalCb_[li(lane)])
        arrivalCb_[li(lane)]();
    return true;
}

std::size_t
NetworkInterface::injectDepth(Lane lane) const
{
    return injectQ_[li(lane)].size();
}

std::size_t
NetworkInterface::ejectDepth(Lane lane) const
{
    return ejectQ_[li(lane)].size();
}

} // namespace sonuma::fab
