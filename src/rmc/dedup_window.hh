/**
 * @file
 * The RRPP's replay-dedup window (paper §4; see README "Exactly-once
 * execution"): the last N mutating requests a destination executed,
 * identified by the full (srcNid, tid, offset) triple, with the reply
 * to re-send if one of them is replayed.
 */

#ifndef SONUMA_RMC_DEDUP_WINDOW_HH
#define SONUMA_RMC_DEDUP_WINDOW_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fabric/message.hh"
#include "sim/types.hh"

namespace sonuma::rmc {

/**
 * A FIFO ring of the last `window` records plus an open-addressed
 * table of ring-slot indices. The table holds no keys: a probe compares
 * the full triple in the ring entry each table slot points at, so two
 * requests are one record only if all three fields match. The table has
 * at least twice as many slots as the ring, so probe runs stay short
 * and always end at an empty slot. Erase is backward shift (no
 * tombstones), so FIFO churn never degrades the table. Both arrays are
 * sized at construction and never reallocate; a window of 0 allocates
 * nothing and remembers nothing.
 */
class DedupWindow
{
  public:
    struct Entry
    {
        std::uint64_t offset = 0;
        std::uint64_t oldValue = 0; //!< atomic replies replay this
        std::uint32_t tid = 0;
        sim::NodeId srcNid = 0;
        fab::Op replyOp = fab::Op::kWriteReply;
    };

    explicit DedupWindow(std::uint32_t window);

    /** The newest record of the triple, or nullptr. */
    const Entry *
    find(sim::NodeId src, std::uint32_t tid, std::uint64_t offset) const
    {
        if (table_.empty())
            return nullptr;
        const std::uint32_t v = table_[probe(src, tid, offset)];
        return v ? &ring_[v - 1] : nullptr;
    }

    /**
     * Record an executed request, evicting the oldest record once the
     * window is full. Re-recording a triple already in the window makes
     * the new record the one find() returns.
     */
    void record(sim::NodeId src, std::uint32_t tid, std::uint64_t offset,
                fab::Op replyOp, std::uint64_t oldValue);

    /** Records held: min(records so far, window). */
    std::uint32_t size() const { return live_; }
    /** Heap bytes of the ring and the table. */
    std::size_t
    bytes() const
    {
        return ring_.capacity() * sizeof(Entry) +
               table_.capacity() * sizeof(std::uint32_t);
    }

  private:
    std::vector<Entry> ring_;
    std::vector<std::uint32_t> table_; //!< ring slot + 1; 0 is empty
    std::uint32_t next_ = 0;           //!< ring slot of the next record
    std::uint32_t live_ = 0;

    /** Table slot holding the triple, else the empty slot ending its run. */
    std::size_t probe(sim::NodeId src, std::uint32_t tid,
                      std::uint64_t offset) const;
    /** Remove table slot @p hole, shifting its run back over it. */
    void erase(std::size_t hole);
};

} // namespace sonuma::rmc

#endif // SONUMA_RMC_DEDUP_WINDOW_HH
