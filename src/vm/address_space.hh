/**
 * @file
 * A process's virtual address space: VA allocation + functional access.
 */

#ifndef SONUMA_VM_ADDRESS_SPACE_HH
#define SONUMA_VM_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>

#include "mem/phys_mem.hh"
#include "vm/page_table.hh"

namespace sonuma::vm {

/**
 * Owns a page table plus a simple bump allocator over the VA range.
 *
 * Functional reads/writes here are the "backdoor" used by software models
 * to move bytes; timing for the same accesses is charged separately by
 * whoever owns the requester port (core or RMC pipeline).
 */
class AddressSpace
{
  public:
    AddressSpace(mem::PhysMem &mem, FrameAllocator &frames);

    /**
     * Allocate and map @p bytes (rounded up to whole pages) of zeroed
     * memory. @return the base VA of the region.
     */
    VAddr alloc(std::uint64_t bytes);

    /** Functional translation. Throws sim::FatalError on unmapped VA. */
    mem::PAddr translate(VAddr va) const;

    /** True if @p va is mapped. */
    bool mapped(VAddr va) const;

    /** Functional read crossing page boundaries as needed. */
    void read(VAddr va, void *dst, std::uint64_t len) const;

    /** Functional write crossing page boundaries as needed. */
    void write(VAddr va, const void *src, std::uint64_t len);

    template <typename T>
    T
    readT(VAddr va) const
    {
        T v;
        read(va, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(VAddr va, const T &v)
    {
        write(va, &v, sizeof(T));
    }

    PageTable &pageTable() { return pt_; }
    const PageTable &pageTable() const { return pt_; }
    mem::PhysMem &phys() { return mem_; }

  private:
    // Start user allocations away from 0 so that null-ish VAs fault.
    static constexpr VAddr kVaBase = 1ull << 20;

    mem::PhysMem &mem_;
    FrameAllocator &frames_;
    PageTable pt_;
    VAddr nextVa_ = kVaBase;
};

} // namespace sonuma::vm

#endif // SONUMA_VM_ADDRESS_SPACE_HH
