/**
 * @file
 * Functional physical memory with sparse backing storage.
 *
 * The simulator follows a functional/timing split: payload bytes live
 * here; caches and DRAM only model *when* accesses complete. Keeping the
 * bytes in one place means the caches need no data arrays.
 *
 * Backing store is demand-zero. The address space splits into 1 MiB
 * chunks, and the first access to a chunk maps it as its own anonymous
 * private mapping, which the kernel zero-fills a 4 KiB page at a time
 * on first touch. A node therefore holds resident only the pages it
 * uses (CT, ITT, page tables, QP rings, segment: tens of KB), not whole
 * chunks. Mapping per chunk rather than the whole space keeps reserved
 * address space small at hundreds of nodes; mmap rather than calloc
 * keeps every chunk fresh from the kernel, so the footprint does not
 * depend on what an earlier PhysMem in the process freed.
 */

#ifndef SONUMA_MEM_PHYS_MEM_HH
#define SONUMA_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace sonuma::mem {

/** Physical address within one node. */
using PAddr = std::uint64_t;

/**
 * Sparse byte-addressable physical memory for one node.
 *
 * All functional reads/writes go through here; an untouched byte reads
 * as zero, matching zero-initialized DRAM semantics.
 */
class PhysMem
{
  public:
    /** @param size physical memory size in bytes (bounds-checked). */
    explicit PhysMem(std::uint64_t size);

    std::uint64_t size() const { return size_; }

    /**
     * Functional read of @p len bytes at @p addr into @p dst. An access
     * that lies inside one already-mapped chunk is one inline memcpy;
     * the rest (first touch, a chunk crossing, out of range) takes
     * readSlow.
     */
    void
    read(PAddr addr, void *dst, std::uint64_t len) const
    {
        if (const std::uint8_t *p = mappedSpan(addr, len))
            std::memcpy(dst, p, len);
        else
            readSlow(addr, dst, len);
    }

    /** Functional write of @p len bytes from @p src to @p addr; the
     *  fast path as for read(). */
    void
    write(PAddr addr, const void *src, std::uint64_t len)
    {
        if (std::uint8_t *p = mappedSpan(addr, len))
            std::memcpy(p, src, len);
        else
            writeSlow(addr, src, len);
    }

    /** Typed convenience accessors. */
    template <typename T>
    T
    readT(PAddr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(PAddr addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /**
     * Atomic (functional) fetch-and-add on a 64-bit word. Timing-level
     * atomicity is enforced by the requester (coherence + single-threaded
     * event loop); this performs the combined update at one event point.
     */
    std::uint64_t fetchAdd64(PAddr addr, std::uint64_t operand);

    /** Atomic compare-and-swap on a 64-bit word. @return the old value. */
    std::uint64_t compareSwap64(PAddr addr, std::uint64_t expected,
                                std::uint64_t desired);

    /** Fill @p len bytes with @p byte. */
    void fill(PAddr addr, std::uint8_t byte, std::uint64_t len);

  private:
    static constexpr std::uint64_t kChunkBytes = 1ull << 20; // 1 MiB

    /** Unmaps a chunk's mapping. */
    struct Unmap
    {
        void operator()(std::uint8_t *p) const;
    };
    using Chunk = std::unique_ptr<std::uint8_t, Unmap>;

    std::uint64_t size_;
    // One slot per chunk of the address space, null until first touch.
    mutable std::vector<Chunk> chunks_;

    /** Host bytes of [@p addr, @p addr + @p len) if the range is in
     *  bounds and inside one chunk that is already mapped, else null. */
    std::uint8_t *
    mappedSpan(PAddr addr, std::uint64_t len) const
    {
        const std::uint64_t off = addr % kChunkBytes;
        if (addr >= size_ || len > size_ - addr || off + len > kChunkBytes)
            return nullptr;
        std::uint8_t *chunk = chunks_[addr / kChunkBytes].get();
        return chunk ? chunk + off : nullptr;
    }

    void readSlow(PAddr addr, void *dst, std::uint64_t len) const;
    void writeSlow(PAddr addr, const void *src, std::uint64_t len);
    std::uint8_t *chunkFor(PAddr addr) const;
    void checkRange(PAddr addr, std::uint64_t len) const;
};

} // namespace sonuma::mem

#endif // SONUMA_MEM_PHYS_MEM_HH
