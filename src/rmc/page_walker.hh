/**
 * @file
 * Hardware page-table walker for the RMC MMU (paper §4.3).
 *
 * On a TLB miss, the walker performs kLevels dependent PTE loads through
 * the MAQ (so walks contend with all other RMC memory traffic and hit in
 * the RMC's coherent L1 when PTEs are cached — the paper's argument for
 * coherence-integrated control structures).
 */

#ifndef SONUMA_RMC_PAGE_WALKER_HH
#define SONUMA_RMC_PAGE_WALKER_HH

#include <cstdint>
#include <optional>
#include <string>

#include "mem/phys_mem.hh"
#include "rmc/maq.hh"
#include "rmc/tlb.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "vm/page_table.hh"

namespace sonuma::rmc {

/**
 * Awaitable translation engine combining the TLB and the walker.
 */
class PageWalker
{
  public:
    PageWalker(sim::StatRegistry &stats, const std::string &name,
               mem::PhysMem &phys, Maq &maq, Tlb &tlb);

    /**
     * Translate (ctx, va) using @p ptRoot on a TLB miss; `co_await` it.
     * The one TLB lookup runs inline, so a hit completes without
     * suspending or a coroutine frame; a miss suspends for walk().
     * *@p out receives the physical address, or std::nullopt if
     * unmapped.
     */
    sim::Step
    translate(sim::CtxId ctx, vm::VAddr va, mem::PAddr ptRoot,
              std::optional<mem::PAddr> *out)
    {
        *out = tlb_.lookup(ctx, va);
        if (*out)
            return {};
        return sim::Step(walk(ctx, va, ptRoot, out));
    }

    std::uint64_t walkCount() const { return walks_.value(); }

  private:
    /** The walk after a TLB miss: kLevels dependent PTE loads through
     *  the MAQ, then the TLB fill. Does not look the TLB up again. */
    sim::Task walk(sim::CtxId ctx, vm::VAddr va, mem::PAddr ptRoot,
                   std::optional<mem::PAddr> *out);

    mem::PhysMem &phys_;
    Maq &maq_;
    Tlb &tlb_;

    sim::Counter walks_;
    sim::Counter faults_;
};

} // namespace sonuma::rmc

#endif // SONUMA_RMC_PAGE_WALKER_HH
