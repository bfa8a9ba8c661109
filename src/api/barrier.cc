/**
 * @file
 * Barrier implementation.
 */

#include "api/barrier.hh"

namespace sonuma::api {

Barrier::Barrier(RmcSession &session, std::vector<sim::NodeId> participants,
                 vm::VAddr mySegmentBase, std::uint64_t regionOffset)
    : session_(session), participants_(std::move(participants)),
      myRegion_(mySegmentBase + regionOffset), regionOffset_(regionOffset)
{
    announceLine_ = session_.allocBuffer(sim::kCacheLineBytes);
}

sim::Task
Barrier::arrive()
{
    auto &as = session_.process().addressSpace();
    const std::uint64_t gen = ++generation_;
    const sim::NodeId self = session_.nodeId();

    // Announce arrival: write my generation into my slot on every peer
    // (and locally for myself).
    co_await session_.core().store(announceLine_);
    as.writeT<std::uint64_t>(announceLine_, gen);
    const std::uint64_t mySlotOff =
        regionOffset_ + std::uint64_t(self) * sim::kCacheLineBytes;
    for (sim::NodeId peer : participants_) {
        if (peer == self) {
            const vm::VAddr local =
                myRegion_ + std::uint64_t(self) * sim::kCacheLineBytes;
            co_await session_.core().store(local);
            as.writeT<std::uint64_t>(local, gen);
            continue;
        }
        // Fire-and-forget: peers observe the write by polling locally;
        // the slot recycles when a later post reaps its completion.
        co_await session_.writeAsync(peer, mySlotOff, announceLine_,
                                     sim::kCacheLineBytes);
    }
    // The announcements are never awaited and the wait below is on
    // remoteWriteEvent, so a doorbell-batched session must ring now
    // (Workload pins batching off for its barriers, but a Barrier can
    // ride any session).
    session_.flush();

    // Poll locally until every participant announced this generation.
    // An announcement lost to a fault is retransmitted by the RMC, so
    // the wait needs no fault path; a peer that never comes back leaves
    // it suspended, and Workload::run reports the stall.
    for (sim::NodeId peer : participants_) {
        const vm::VAddr slot =
            myRegion_ + std::uint64_t(peer) * sim::kCacheLineBytes;
        while (true) {
            co_await session_.core().load(slot);
            if (as.readT<std::uint64_t>(slot) >= gen)
                break;
            co_await session_.rmc().remoteWriteEvent().wait();
        }
    }
}

} // namespace sonuma::api
