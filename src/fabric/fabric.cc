/**
 * @file
 * Fabric core: endpoints, credits, parking and node faults.
 */

#include "fabric/fabric.hh"

#include <cassert>

namespace sonuma::fab {

Fabric::Fabric(sim::EventQueue &eq, sim::StatRegistry &stats,
               const std::string &prefix, std::uint32_t creditsPerLane,
               std::size_t nodes)
    : eq_(eq), stats_(stats), creditsPerLane_(creditsPerLane),
      endpoints_(nodes),
      delivered_(stats, prefix + ".delivered", "messages delivered"),
      dropped_(stats, prefix + ".dropped", "messages dropped (failures)"),
      parkedCount_(stats, prefix + ".parked",
                   "deliveries parked on full eject queues"),
      totalHops_(stats, prefix + ".totalHops",
                 "sum of per-message hop counts")
{
}

void
Fabric::attach(sim::NodeId id, NetworkInterface *ni)
{
    if (endpoints_.size() <= id)
        endpoints_.resize(id + 1);
    Endpoint &ep = endpoints_[id];
    assert(!ep.ni && "node id attached twice");
    ep.ni = ni;
    for (std::size_t l = 0; l < kNumLanes; ++l)
        ep.credits[l] = creditsPerLane_;
    attached(id);
}

bool
Fabric::tryInject(PacketId id)
{
    const Message &msg = pool_[id];
    assert(msg.srcNid < endpoints_.size() && endpoints_[msg.srcNid].ni);
    Endpoint &src = endpoints_[msg.srcNid];
    const Lane lane = msg.lane();

    if (src.failed || msg.dstNid >= endpoints_.size() ||
        !endpoints_[msg.dstNid].ni || endpoints_[msg.dstNid].failed) {
        dropped_.inc();
        pool_.release(id);
        return true; // swallowed: reliable delivery not possible
    }
    if (src.credits[li(lane)] == 0)
        return false;
    --src.credits[li(lane)];
    launch(id);
    return true;
}

void
Fabric::deliverOrPark(PacketId id, std::uint32_t hops)
{
    // Read what the credit needs first: the NI's arrival callback may
    // pop the packet, and a send from there may move the pool.
    const Message &msg = pool_[id];
    const sim::NodeId src = msg.srcNid;
    const Lane lane = msg.lane();
    Endpoint &dst = endpoints_[msg.dstNid];
    if (dst.ni->deliver(id, lane)) {
        delivered_.inc();
        totalHops_.inc(hops);
        returnCredit(src, lane);
    } else {
        // Receiver eject queue full: park the packet, keep the credit.
        parkedCount_.inc();
        dst.parked[li(lane)].push(Parked{id, hops});
    }
}

void
Fabric::drop(PacketId id)
{
    const Message &msg = pool_[id];
    const sim::NodeId src = msg.srcNid;
    const Lane lane = msg.lane();
    pool_.release(id);
    dropped_.inc();
    returnCredit(src, lane);
}

void
Fabric::ejectSpaceFreed(sim::NodeId id, Lane lane)
{
    Endpoint &dst = endpoints_[id];
    if (dst.failed) {
        // A failed node must not receive parked traffic; drop it so the
        // senders' credits come back.
        flushParked(dst);
        return;
    }
    auto &q = dst.parked[li(lane)];
    while (!q.empty()) {
        const Parked p = q.front();
        const sim::NodeId src = pool_[p.id].srcNid;
        if (!dst.ni->deliver(p.id, lane))
            break;
        delivered_.inc();
        totalHops_.inc(p.hops);
        returnCredit(src, lane);
        q.pop();
    }
}

void
Fabric::returnCredit(sim::NodeId srcId, Lane lane)
{
    Endpoint &src = endpoints_[srcId];
    ++src.credits[li(lane)];
    assert(src.credits[li(lane)] <= creditsPerLane_);
    if (src.ni)
        src.ni->injectSpaceFreed(lane);
}

void
Fabric::flushParked(Endpoint &ep)
{
    for (auto &q : ep.parked) {
        while (!q.empty())
            drop(q.popFront().id);
    }
}

void
Fabric::failNode(sim::NodeId id)
{
    assert(id < endpoints_.size());
    Endpoint &ep = endpoints_[id];
    if (ep.failed)
        return;
    ep.failed = true;
    flushParked(ep);
}

void
Fabric::recoverNode(sim::NodeId id)
{
    assert(id < endpoints_.size());
    endpoints_[id].failed = false;
}

void
Fabric::failLink(sim::NodeId from, sim::NodeId to)
{
    validateLink(from, to);
    setLinkUp(from, to, false);
}

void
Fabric::recoverLink(sim::NodeId from, sim::NodeId to)
{
    validateLink(from, to);
    setLinkUp(from, to, true);
}

void
Fabric::setLinkLossy(sim::NodeId from, sim::NodeId to, bool lossy)
{
    validateLink(from, to);
    setLossy(from, to, lossy);
}

} // namespace sonuma::fab
