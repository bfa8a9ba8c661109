/**
 * @file
 * Page table and frame allocator implementation.
 */

#include "vm/page_table.hh"

#include <cassert>

#include "sim/log.hh"

namespace sonuma::vm {

FrameAllocator::FrameAllocator(mem::PAddr base, std::uint64_t size)
    : base_(base), totalFrames_(size / kPageBytes)
{
    assert(base % kPageBytes == 0 && "frame pool must be page aligned");
}

mem::PAddr
FrameAllocator::alloc()
{
    if (!freeList_.empty()) {
        mem::PAddr f = freeList_.back();
        freeList_.pop_back();
        ++allocated_;
        return f;
    }
    if (next_ >= totalFrames_)
        sim::fatal("physical memory exhausted: " +
                   std::to_string(totalFrames_) + " frames in pool");
    ++allocated_;
    return base_ + (next_++) * kPageBytes;
}

void
FrameAllocator::free(mem::PAddr frame)
{
    assert(frame % kPageBytes == 0);
    assert(allocated_ > 0);
    --allocated_;
    freeList_.push_back(frame);
}

PageTable::PageTable(mem::PhysMem &mem, FrameAllocator &frames)
    : mem_(mem), frames_(frames), root_(frames.alloc())
{
    mem_.fill(root_, 0, kPageBytes);
}

void
PageTable::invalidateMemo()
{
    // On wrap-around, clear the table so no entry from an earlier lap
    // can match the reused generation.
    if (++memoGen_ == 0) {
        memo_.fill(MemoEntry{});
        memoGen_ = 1;
    }
}

mem::PAddr
PageTable::allocNode()
{
    mem::PAddr node = frames_.alloc();
    mem_.fill(node, 0, kPageBytes);
    ++tableNodes_;
    return node;
}

std::uint32_t
PageTable::indexAt(std::uint32_t level, VAddr va)
{
    assert(level < kLevels);
    const std::uint32_t shift =
        kPageBits + (kLevels - 1 - level) * kLevelBits;
    return static_cast<std::uint32_t>((va >> shift) &
                                      ((1ull << kLevelBits) - 1));
}

mem::PAddr
PageTable::pteAddr(mem::PAddr tableBase, std::uint32_t level, VAddr va)
{
    return tableBase + std::uint64_t(indexAt(level, va)) * 8;
}

void
PageTable::map(VAddr va, mem::PAddr frame)
{
    assert(pageOffset(va) == 0 && "map requires page-aligned VA");
    assert(frame % kPageBytes == 0 && "map requires page-aligned frame");
    assert(va < (1ull << kVaBits) && "VA exceeds addressable range");

    invalidateMemo();
    mem::PAddr table = root_;
    for (std::uint32_t level = 0; level + 1 < kLevels; ++level) {
        const mem::PAddr slot = pteAddr(table, level, va);
        std::uint64_t pte = mem_.readT<std::uint64_t>(slot);
        if (!pteValid(pte)) {
            const mem::PAddr node = allocNode();
            pte = makePte(node);
            mem_.writeT<std::uint64_t>(slot, pte);
        }
        table = pteFrame(pte);
    }
    mem_.writeT<std::uint64_t>(pteAddr(table, kLevels - 1, va),
                               makePte(frame));
}

void
PageTable::unmap(VAddr va)
{
    assert(pageOffset(va) == 0);
    invalidateMemo();
    mem::PAddr table = root_;
    for (std::uint32_t level = 0; level + 1 < kLevels; ++level) {
        const std::uint64_t pte =
            mem_.readT<std::uint64_t>(pteAddr(table, level, va));
        if (!pteValid(pte))
            return;
        table = pteFrame(pte);
    }
    mem_.writeT<std::uint64_t>(pteAddr(table, kLevels - 1, va), 0);
}

std::optional<mem::PAddr>
PageTable::translate(VAddr va) const
{
    const std::uint64_t vpn = va >> kPageBits;
    MemoEntry &m = memo_[vpn % kMemoEntries];
    if (m.gen == memoGen_ && m.vpn == vpn)
        return m.frame + pageOffset(va);
    const std::optional<mem::PAddr> pa = walk(mem_, root_, va);
    if (pa)
        m = MemoEntry{memoGen_, static_cast<std::uint32_t>(vpn),
                      pageBase(*pa)};
    return pa;
}

std::optional<mem::PAddr>
PageTable::walk(const mem::PhysMem &phys, mem::PAddr root, VAddr va)
{
    if (va >= (1ull << kVaBits))
        return std::nullopt;
    mem::PAddr table = root;
    for (std::uint32_t level = 0; level < kLevels; ++level) {
        const std::uint64_t pte =
            phys.readT<std::uint64_t>(pteAddr(table, level, va));
        if (!pteValid(pte))
            return std::nullopt;
        table = pteFrame(pte);
    }
    return table + pageOffset(va);
}

} // namespace sonuma::vm
