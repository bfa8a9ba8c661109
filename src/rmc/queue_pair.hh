/**
 * @file
 * Queue-pair (WQ/CQ) memory layouts shared by application and RMC.
 *
 * Both queues live in application virtual memory and are cached coherently
 * by the cores and the RMC alike (paper §4.1). WQ entries are one cache
 * line so a producing store and the RMC's polling load transfer exactly
 * one line. Ring-lap phase bits (rather than a shared head/tail word)
 * make polling race-free without extra coherence traffic.
 */

#ifndef SONUMA_RMC_QUEUE_PAIR_HH
#define SONUMA_RMC_QUEUE_PAIR_HH

#include <cstdint>

#include "sim/types.hh"
#include "vm/page_table.hh"

namespace sonuma::rmc {

/** Operation kinds schedulable on a WQ. */
enum class WqOp : std::uint8_t
{
    kRead = 1,
    kWrite = 2,
    kCas = 3,
    kFetchAdd = 4,
};

/**
 * One work-queue entry (64 bytes = one cache line).
 *
 * `phase` toggles every ring lap: the RMC consumes an entry when the
 * entry's phase equals the current lap parity, so neither side needs to
 * write a shared index.
 */
struct WqEntry
{
    std::uint8_t phase;      //!< lap parity; toggles each ring wrap
    std::uint8_t op;         //!< WqOp
    sim::NodeId dstNid;      //!< destination node
    std::uint32_t length;    //!< bytes; multiple of 64 (8 for atomics)
    std::uint64_t offset;    //!< destination context-segment offset
    std::uint64_t bufVa;     //!< local buffer virtual address
    std::uint64_t operand1;  //!< CAS compare value / F&A addend
    std::uint64_t operand2;  //!< CAS swap value
    std::uint8_t pad[24];
};

static_assert(sizeof(WqEntry) == sim::kCacheLineBytes,
              "WQ entries must be exactly one cache line");

/**
 * One completion-queue entry (8 bytes; 8 per cache line).
 *
 * Carries the index of the completed WQ request (paper §4.1) plus a
 * success/error status. Phase bit works as in WqEntry.
 */
struct CqEntry
{
    std::uint8_t phase;
    std::uint8_t status;    //!< CqStatus
    std::uint16_t wqIndex;  //!< index of the completed WQ entry
    std::uint32_t pad;
};

static_assert(sizeof(CqEntry) == 8, "CQ entry layout");

enum class CqStatus : std::uint8_t
{
    kOk = 0,
    kBoundsError = 1,   //!< offset outside the destination segment
    kBadContext = 2,    //!< ctx not registered at the destination
    kFabricError = 3,   //!< attempt budget spent without a reply
    kFlushed = 4,       //!< QP/context torn down while in flight
};

/**
 * Software-visible descriptor of one registered queue pair. Held in the
 * Context Table; the RGP polls wqBase, the RCP writes cqBase.
 */
struct QpDescriptor
{
    bool valid = false;
    vm::VAddr wqBase = 0;
    vm::VAddr cqBase = 0;
    std::uint32_t entries = 0;  //!< ring size (same for WQ and CQ)

    std::uint64_t
    wqEntryVa(std::uint32_t idx) const
    {
        return wqBase + std::uint64_t(idx) * sizeof(WqEntry);
    }

    std::uint64_t
    cqEntryVa(std::uint32_t idx) const
    {
        return cqBase + std::uint64_t(idx) * sizeof(CqEntry);
    }
};

/** Phase value expected on lap @p lap (laps count from 0). */
constexpr std::uint8_t
phaseForLap(std::uint64_t lap)
{
    return static_cast<std::uint8_t>(1 - (lap & 1));
}

//
// Global slot numbering for multi-QP sessions: a session owning N queue
// pairs of E entries each addresses its per-slot state (records, busy
// bits, landing buffers) with one flat index `qp * E + idx`. The CQ
// wire format still carries the per-QP wqIndex; globalSlot is the
// session-side multiplexing arithmetic.
//

/** Flat slot index for entry @p idx of queue pair @p qp. */
constexpr std::uint32_t
globalSlot(std::uint32_t qp, std::uint32_t idx, std::uint32_t entries)
{
    return qp * entries + idx;
}

/**
 * Live occupancy of one queue pair as the RMC sees it: WQ entries
 * consumed but not yet completed (transfers in flight), and CQ entries
 * written but not yet reaped by software. Maintained unconditionally
 * (two integer bumps per op) and exported as per-QP time series when
 * sampling is on (docs/observability.md).
 */
struct QpOccupancy
{
    std::uint32_t wq = 0; //!< in-flight transfers charged to this QP
    std::uint32_t cq = 0; //!< completions posted, not yet consumed
};

/**
 * Ring cursor: index + current lap phase. Used by the producing and
 * consuming sides of both queues.
 */
class RingCursor
{
  public:
    explicit RingCursor(std::uint32_t entries) : entries_(entries) {}

    std::uint32_t index() const { return idx_; }

    /** Phase an entry must carry to be "new" at this cursor position. */
    std::uint8_t expectedPhase() const { return phaseForLap(lap_); }

    void
    advance()
    {
        if (++idx_ == entries_) {
            idx_ = 0;
            ++lap_;
        }
    }

    std::uint32_t entries() const { return entries_; }

  private:
    std::uint32_t entries_;
    std::uint32_t idx_ = 0;
    std::uint64_t lap_ = 0;
};

} // namespace sonuma::rmc

#endif // SONUMA_RMC_QUEUE_PAIR_HH
