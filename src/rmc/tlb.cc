/**
 * @file
 * TLB implementation.
 */

#include "rmc/tlb.hh"

namespace sonuma::rmc {

Tlb::Tlb(sim::StatRegistry &stats, const std::string &name,
         std::uint32_t entries)
    : capacity_(entries), entries_(entries),
      hits_(stats, name + ".hits", "TLB hits"),
      misses_(stats, name + ".misses", "TLB misses")
{
}

std::optional<mem::PAddr>
Tlb::lookup(sim::CtxId ctx, vm::VAddr va)
{
    const std::uint64_t vpn = vpnOf(va);
    for (auto &e : entries_) {
        if (e.valid && e.ctx == ctx && e.vpn == vpn) {
            e.lastUse = ++useClock_;
            hits_.inc();
            return e.frame + vm::pageOffset(va);
        }
    }
    misses_.inc();
    return std::nullopt;
}

void
Tlb::insert(sim::CtxId ctx, vm::VAddr va, mem::PAddr frame)
{
    const std::uint64_t vpn = vpnOf(va);
    Entry *victim = nullptr;
    for (auto &e : entries_) {
        if (e.valid && e.ctx == ctx && e.vpn == vpn) {
            victim = &e; // refresh existing mapping
            break;
        }
        if (!e.valid) {
            if (!victim || victim->valid)
                victim = &e;
        } else if (!victim ||
                   (victim->valid && e.lastUse < victim->lastUse)) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->ctx = ctx;
    victim->vpn = vpn;
    victim->frame = frame;
    victim->lastUse = ++useClock_;
}

void
Tlb::flushCtx(sim::CtxId ctx)
{
    for (auto &e : entries_) {
        if (e.ctx == ctx)
            e.valid = false;
    }
}

} // namespace sonuma::rmc
