/**
 * @file
 * Memory Access Queue implementation.
 */

#include "rmc/maq.hh"

#include <algorithm>
#include <cassert>

namespace sonuma::rmc {

Maq::Maq(sim::EventQueue &eq, sim::StatRegistry &stats,
         const std::string &name, mem::L1Cache &l1, std::uint32_t entries)
    : eq_(eq), l1_(l1), capacity_(entries), waiting_(entries),
      reads_(stats, name + ".reads", "MAQ read accesses"),
      writes_(stats, name + ".writes", "MAQ write accesses"),
      forwards_(stats, name + ".forwards", "store-to-load forwards"),
      structuralStalls_(stats, name + ".stalls", "full-queue stalls")
{
    slots_.resize(capacity_);
    freeSlots_.reserve(capacity_);
    activeStores_.reserve(capacity_);
    for (std::uint32_t i = capacity_; i > 0; --i)
        freeSlots_.push_back(i - 1);
}

Maq::Slot *
Maq::findInflightStore(mem::PAddr line)
{
    std::uint32_t lowest = capacity_;
    for (const std::uint32_t idx : activeStores_) {
        if (idx < lowest && slots_[idx].line == line)
            lowest = idx;
    }
    return lowest == capacity_ ? nullptr : &slots_[lowest];
}

void
Maq::submit(mem::PAddr pa, bool isWrite, bool fullLine, sim::Callback done)
{
    // Store-to-load forwarding: a load that hits an in-flight store to
    // the same line completes when that store commits, without a second
    // L1 access (and without occupying a MAQ slot).
    if (!isWrite) {
        if (Slot *store = findInflightStore(lineOf(pa))) {
            forwards_.inc();
            store->forwardedLoads.push_back(std::move(done));
            return;
        }
    }

    if (inflight_ >= capacity_) {
        structuralStalls_.inc();
        waiting_.push(Pending{pa, isWrite, fullLine, std::move(done)});
        return;
    }
    issue(pa, isWrite, fullLine, std::move(done));
}

void
Maq::issue(mem::PAddr pa, bool isWrite, bool fullLine, sim::Callback done)
{
    ++inflight_;
    if (isWrite)
        writes_.inc();
    else
        reads_.inc();

    assert(!freeSlots_.empty());
    const std::uint32_t idx = freeSlots_.back();
    freeSlots_.pop_back();
    Slot &slot = slots_[idx];
    slot.line = lineOf(pa);
    slot.isWrite = isWrite;
    slot.active = true;
    slot.done = std::move(done);
    if (isWrite)
        activeStores_.push_back(idx);

    // The completion handed to the cache captures 12 bytes; the
    // caller's continuation stays parked in the slot.
    if (fullLine)
        l1_.accessFullLineWrite(pa, [this, idx] { complete(idx); });
    else
        l1_.access(pa, isWrite, [this, idx] { complete(idx); });
}

void
Maq::complete(std::uint32_t slotIdx)
{
    Slot &slot = slots_[slotIdx];
    assert(slot.active);

    // Detach completion state before invoking anything: callbacks may
    // re-enter submit() and the freed slot must be reusable immediately.
    sim::Callback done = std::move(slot.done);
    const bool wasWrite = slot.isWrite;
    slot.active = false;
    if (wasWrite) {
        auto it = std::find(activeStores_.begin(), activeStores_.end(),
                            slotIdx);
        *it = activeStores_.back();
        activeStores_.pop_back();
    }

    done();
    if (wasWrite && !slot.forwardedLoads.empty()) {
        // Wake loads forwarded from this store. New forwards cannot
        // subscribe mid-loop (the slot is already inactive), so plain
        // index iteration is safe even if a callback grows other slots.
        for (auto &fn : slot.forwardedLoads)
            fn();
        slot.forwardedLoads.clear();
    }
    freeSlots_.push_back(slotIdx);
    release();
}

void
Maq::release()
{
    --inflight_;
    if (!waiting_.empty() && inflight_ < capacity_) {
        Pending p = waiting_.popFront();
        issue(p.pa, p.isWrite, p.fullLine, std::move(p.done));
    }
}

} // namespace sonuma::rmc
