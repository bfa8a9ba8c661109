/**
 * @file
 * Barrier synchronization across nodes sharing a context (paper §5.3):
 * "Each participating node broadcasts the arrival at a barrier by
 * issuing a write to an agreed upon offset on each of its peers. The
 * nodes then poll locally until all of them reach the barrier."
 *
 * Layout: every node's context segment reserves, at a common offset, an
 * array of one cache line per participant; slot i holds the generation
 * counter last announced by node i. Generations make the barrier
 * reusable without reinitialization.
 */

#ifndef SONUMA_API_BARRIER_HH
#define SONUMA_API_BARRIER_HH

#include <cstdint>
#include <vector>

#include "api/session.hh"

namespace sonuma::api {

class Barrier
{
  public:
    /**
     * @param session this node's RMC session. The barrier posts its
     *        announcement writes fire-and-forget; v2 per-slot
     *        completions cannot be misrouted, so the owning coroutine
     *        may interleave barrier arrivals with its own traffic on
     *        one session (sequentially — see session.hh's concurrency
     *        contract). Workload still gives each barrier a private QP
     *        so announcement writes never contend for WQ slots.
     * @param participants node ids taking part (must include self)
     * @param mySegmentBase local VA of this node's context segment
     * @param regionOffset common offset of the barrier region in every
     *        participant's segment
     */
    Barrier(RmcSession &session, std::vector<sim::NodeId> participants,
            vm::VAddr mySegmentBase, std::uint64_t regionOffset);

    /** Bytes of context segment the barrier region occupies. */
    static std::uint64_t
    regionBytes(std::size_t participants)
    {
        return participants * sim::kCacheLineBytes;
    }

    /** Enter the barrier; resumes when all participants arrived. */
    [[nodiscard]] sim::Task arrive();

    /** Completed barrier episodes. */
    std::uint64_t generation() const { return generation_; }

  private:
    RmcSession &session_;
    std::vector<sim::NodeId> participants_;
    vm::VAddr myRegion_;
    std::uint64_t regionOffset_;
    std::uint64_t generation_ = 0;
    vm::VAddr announceLine_;
};

} // namespace sonuma::api

#endif // SONUMA_API_BARRIER_HH
