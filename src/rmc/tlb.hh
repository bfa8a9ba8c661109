/**
 * @file
 * The RMC MMU's TLB: small, fully associative, LRU, tagged with the
 * application context (address-space identifier) as in paper §4.3.
 */

#ifndef SONUMA_RMC_TLB_HH
#define SONUMA_RMC_TLB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/page_table.hh"

namespace sonuma::rmc {

/**
 * Fully-associative, LRU translation lookaside buffer keyed by
 * (ctx_id, virtual page number).
 */
class Tlb
{
  public:
    Tlb(sim::StatRegistry &stats, const std::string &name,
        std::uint32_t entries);

    /** Look up a translation. Refreshes LRU on hit. */
    std::optional<mem::PAddr> lookup(sim::CtxId ctx, vm::VAddr va);

    /** Install a translation (evicts LRU when full). */
    void insert(sim::CtxId ctx, vm::VAddr va, mem::PAddr frame);

    /** Drop all translations for @p ctx (context teardown). */
    void flushCtx(sim::CtxId ctx);

    std::uint64_t hitCount() const { return hits_.value(); }
    std::uint64_t missCount() const { return misses_.value(); }
    std::uint32_t capacity() const { return capacity_; }

  private:
    struct Entry
    {
        bool valid = false;
        sim::CtxId ctx = 0;
        std::uint64_t vpn = 0;
        mem::PAddr frame = 0;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t capacity_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;

    sim::Counter hits_;
    sim::Counter misses_;

    static std::uint64_t
    vpnOf(vm::VAddr va)
    {
        return va >> vm::kPageBits;
    }
};

} // namespace sonuma::rmc

#endif // SONUMA_RMC_TLB_HH
