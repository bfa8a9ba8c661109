/**
 * @file
 * Page walker implementation.
 */

#include "rmc/page_walker.hh"

namespace sonuma::rmc {

PageWalker::PageWalker(sim::StatRegistry &stats, const std::string &name,
                       mem::PhysMem &phys, Maq &maq, Tlb &tlb)
    : phys_(phys), maq_(maq), tlb_(tlb),
      walks_(stats, name + ".walks", "page-table walks"),
      faults_(stats, name + ".faults", "walks hitting invalid PTEs")
{
}

sim::Task
PageWalker::walk(sim::CtxId ctx, vm::VAddr va, mem::PAddr ptRoot,
                 std::optional<mem::PAddr> *out)
{
    walks_.inc();
    mem::PAddr table = ptRoot;
    for (std::uint32_t level = 0; level < vm::kLevels; ++level) {
        const mem::PAddr pteAddr =
            vm::PageTable::pteAddr(table, level, va);
        co_await maq_.read(pteAddr); // dependent load through the MAQ
        const auto pte = phys_.readT<std::uint64_t>(pteAddr);
        if (!vm::PageTable::pteValid(pte)) {
            faults_.inc();
            *out = std::nullopt;
            co_return;
        }
        table = vm::PageTable::pteFrame(pte);
    }
    tlb_.insert(ctx, va, table);
    *out = table + vm::pageOffset(va);
}

} // namespace sonuma::rmc
