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
Fabric::tryInject(const Message &msg)
{
    assert(msg.srcNid < endpoints_.size() && endpoints_[msg.srcNid].ni);
    Endpoint &src = endpoints_[msg.srcNid];
    const Lane lane = msg.lane();

    if (src.failed || msg.dstNid >= endpoints_.size() ||
        !endpoints_[msg.dstNid].ni || endpoints_[msg.dstNid].failed) {
        dropped_.inc();
        return true; // swallowed: reliable delivery not possible
    }
    if (src.credits[li(lane)] == 0)
        return false;
    --src.credits[li(lane)];
    launch(msg);
    return true;
}

void
Fabric::deliverOrPark(const Message &msg, std::uint32_t hops)
{
    Endpoint &dst = endpoints_[msg.dstNid];
    const Lane lane = msg.lane();
    if (dst.ni->deliver(msg)) {
        delivered_.inc();
        totalHops_.inc(hops);
        returnCredit(msg.srcNid, lane);
    } else {
        // Receiver eject queue full: park the packet, keep the credit.
        parkedCount_.inc();
        dst.parked[li(lane)].push(Parked{msg, hops});
    }
}

void
Fabric::drop(const Message &msg)
{
    dropped_.inc();
    returnCredit(msg.srcNid, msg.lane());
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
        if (!dst.ni->deliver(q.front().msg))
            break;
        delivered_.inc();
        totalHops_.inc(q.front().hops);
        returnCredit(q.front().msg.srcNid, lane);
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
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        auto &q = ep.parked[l];
        while (!q.empty()) {
            dropped_.inc();
            returnCredit(q.front().msg.srcNid, static_cast<Lane>(l));
            q.pop();
        }
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
