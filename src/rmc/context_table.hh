/**
 * @file
 * The Context Table (CT) and its lookaside cache (CT$), paper §4.2/4.3.
 *
 * The CT is the RMC's configuration root: per ctx_id it records the
 * registered context segment (base VA + bounds), the page-table root,
 * and the list of queue pairs. It is allocated in memory by the device
 * driver and read by the RMC through the MAQ; the CT$ caches recently
 * used entries so steady-state request processing avoids the memory
 * round-trip. Entry *contents* are mirrored in host structures for
 * implementation simplicity — their memory traffic (timing) is still
 * charged through the MAQ at the correct addresses. Timing depends only
 * on which lines are touched, never on their bytes, so the mirror keeps
 * CT and CT$ miss costs exact.
 */

#ifndef SONUMA_RMC_CONTEXT_TABLE_HH
#define SONUMA_RMC_CONTEXT_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/phys_mem.hh"
#include "rmc/queue_pair.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/page_table.hh"

namespace sonuma::rmc {

/** One CT entry: a context registered at this node. */
struct CtEntry
{
    bool valid = false;
    vm::VAddr segBase = 0;       //!< context segment base VA
    std::uint64_t segBytes = 0;  //!< context segment size (bounds check)
    mem::PAddr ptRoot = 0;       //!< page table root of the owning process
    std::vector<QpDescriptor> qps;
};

/** In-memory footprint of one CT entry (for MAQ timing addresses). */
inline constexpr std::uint64_t kCtEntryBytes = 256;

/**
 * The Context Table plus the CT$ front-end.
 *
 * `lookup()` reports whether the access hit the CT$; on a miss the
 * caller (a pipeline) charges a MAQ read at `entryAddr()` before using
 * the entry, then calls `fill()`.
 */
class ContextTable
{
  public:
    ContextTable(sim::StatRegistry &stats, const std::string &name,
                 mem::PAddr basePa, std::uint32_t maxContexts,
                 std::uint32_t cacheEntries);

    /** Physical address of @p ctx's entry (for MAQ timing charges). */
    mem::PAddr
    entryAddr(sim::CtxId ctx) const
    {
        return basePa_ + std::uint64_t(ctx) * kCtEntryBytes;
    }

    std::uint32_t maxContexts() const { return maxContexts_; }

    //
    // Driver-side (functional) interface
    //

    /** Register / replace a context entry. */
    void install(sim::CtxId ctx, const CtEntry &entry);

    /** Tear down a context. */
    void remove(sim::CtxId ctx);

    /** Driver-side read (no timing). */
    const CtEntry *entry(sim::CtxId ctx) const;
    CtEntry *entryMutable(sim::CtxId ctx);

    //
    // RMC-side (CT$) interface
    //

    /**
     * CT$ probe. @retval true on CT$ hit: no memory access needed.
     * On miss the pipeline must charge a MAQ read, then call fill().
     */
    bool cacheLookup(sim::CtxId ctx);

    /** Install @p ctx into the CT$ after the miss fill completes. */
    void fill(sim::CtxId ctx);

    /** Invalidate the CT$ (driver update). */
    void invalidateCache();

    /** Disable the CT$ entirely (ablation experiments). */
    void setCacheEnabled(bool enabled);

    std::uint64_t cacheHits() const { return hits_.value(); }
    std::uint64_t cacheMisses() const { return misses_.value(); }

  private:
    struct CacheSlot
    {
        bool valid = false;
        sim::CtxId ctx = 0;
        std::uint64_t lastUse = 0;
    };

    mem::PAddr basePa_;
    std::uint32_t maxContexts_;
    std::vector<CtEntry> entries_;
    std::vector<CacheSlot> cache_;
    bool cacheEnabled_ = true;
    std::uint64_t useClock_ = 0;

    sim::Counter hits_;
    sim::Counter misses_;
};

} // namespace sonuma::rmc

#endif // SONUMA_RMC_CONTEXT_TABLE_HH
