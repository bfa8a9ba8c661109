/**
 * @file
 * Per-process page tables, stored in simulated physical memory.
 *
 * The paper's RMC walks the *same* page tables the OS manages (no state
 * replication into the device — the core argument of §4.3). To model that,
 * PTEs live in PhysMem as real bytes: the OS writes them here and the
 * RMC's hardware page walker (src/rmc/page_walker.*) reads them back
 * through its coherent L1.
 *
 * Geometry: 8 KB pages (Table 1), 3 levels, 10 index bits per level
 * (1024 x 8 B PTEs = one 8 KB page per table node), 43-bit VA.
 */

#ifndef SONUMA_VM_PAGE_TABLE_HH
#define SONUMA_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace sonuma::vm {

/** Virtual address within one process. */
using VAddr = std::uint64_t;

inline constexpr std::uint32_t kPageBits = 13;           //!< 8 KB pages
inline constexpr std::uint64_t kPageBytes = 1ull << kPageBits;
inline constexpr std::uint32_t kLevelBits = 10;          //!< 1024 PTEs
inline constexpr std::uint32_t kLevels = 3;
inline constexpr std::uint64_t kVaBits = kPageBits + kLevels * kLevelBits;

/** Page-align helpers. */
constexpr VAddr
pageBase(VAddr va)
{
    return va & ~(kPageBytes - 1);
}

constexpr std::uint64_t
pageOffset(VAddr va)
{
    return va & (kPageBytes - 1);
}

/**
 * Physical-frame allocator for one node.
 *
 * Frames are 8 KB. Freed frames are recycled LIFO.
 */
class FrameAllocator
{
  public:
    /** @param base first allocatable physical address (page aligned)
     *  @param size bytes available for allocation */
    FrameAllocator(mem::PAddr base, std::uint64_t size);

    /** Allocate one frame. Throws sim::FatalError when exhausted. */
    mem::PAddr alloc();

    /** Return a frame to the pool. */
    void free(mem::PAddr frame);

    std::uint64_t allocated() const { return allocated_; }

  private:
    mem::PAddr base_;
    std::uint64_t totalFrames_;
    std::uint64_t next_ = 0;
    std::uint64_t allocated_ = 0;
    std::vector<mem::PAddr> freeList_;
};

/**
 * A hierarchical page table rooted in physical memory.
 *
 * The PTE format: bit 0 = valid; bits [63:13] = frame base address.
 */
class PageTable
{
  public:
    PageTable(mem::PhysMem &mem, FrameAllocator &frames);

    /** Physical address of the root table (CT "PT root" field). */
    mem::PAddr root() const { return root_; }

    /** Map one page: @p va (page-aligned) -> @p frame (page-aligned). */
    void map(VAddr va, mem::PAddr frame);

    /** Remove the mapping for @p va if present. */
    void unmap(VAddr va);

    /** Functional translation (no timing); memoized, see memo_. */
    std::optional<mem::PAddr> translate(VAddr va) const;

    /** translate() for any table: walks @p root in @p phys (the RMC's
     *  untimed completion and teardown paths hold only the root). */
    static std::optional<mem::PAddr> walk(const mem::PhysMem &phys,
                                          mem::PAddr root, VAddr va);

    /** Index of @p va at table level @p level (0 = root). */
    static std::uint32_t indexAt(std::uint32_t level, VAddr va);

    /**
     * Physical address of the PTE slot for @p va inside the table node at
     * @p tableBase / @p level. Used by the hardware walker to issue its
     * per-level memory reads.
     */
    static mem::PAddr pteAddr(mem::PAddr tableBase, std::uint32_t level,
                              VAddr va);

    /** Decode a raw PTE: valid bit and next-level/frame base. */
    static bool pteValid(std::uint64_t pte) { return pte & 1ull; }

    static mem::PAddr
    pteFrame(std::uint64_t pte)
    {
        return pte & ~((1ull << kPageBits) - 1);
    }

    /** Encode a PTE. */
    static std::uint64_t
    makePte(mem::PAddr frame)
    {
        return frame | 1ull;
    }

    /** Number of table nodes allocated (root included). */
    std::uint64_t tableNodes() const { return tableNodes_; }

  private:
    mem::PhysMem &mem_;
    FrameAllocator &frames_;
    mem::PAddr root_;
    std::uint64_t tableNodes_ = 1;

    //
    // Functional translation memo: a direct-mapped VPN -> frame table
    // that spares translate() its three PTE loads on a repeat page.
    // It is host-only. translate() is the simulator's own backdoor
    // (software models moving bytes, a core finding the line of a
    // timed load), so it has no simulated cost to model; the RMC's
    // modeled TLB and page walker read the PTEs from memory through
    // walk()/pteAddr() and never see this table, so no simulated
    // value depends on it. Only map() and unmap() write PTEs, and
    // each bumps memoGen_, which invalidates every entry at once (an
    // entry is live only while its gen matches), so the many map()
    // calls of AddressSpace::alloc clear nothing. Gen 0 marks empty.
    //
    struct MemoEntry
    {
        std::uint32_t gen = 0;
        std::uint32_t vpn = 0;  //!< a 43-bit VA has a 30-bit VPN
        mem::PAddr frame = 0;
    };
    static constexpr std::uint32_t kMemoEntries = 32;
    mutable std::array<MemoEntry, kMemoEntries> memo_{};
    std::uint32_t memoGen_ = 1;

    mem::PAddr allocNode();
    void invalidateMemo();
};

} // namespace sonuma::vm

#endif // SONUMA_VM_PAGE_TABLE_HH
