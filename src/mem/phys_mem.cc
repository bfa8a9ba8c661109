/**
 * @file
 * Sparse physical memory implementation.
 */

#include "mem/phys_mem.hh"

#include <sys/mman.h>

#include <algorithm>

#include "sim/log.hh"

namespace sonuma::mem {

PhysMem::PhysMem(std::uint64_t size)
    : size_(size), chunks_((size + kChunkBytes - 1) / kChunkBytes)
{
}

void
PhysMem::Unmap::operator()(std::uint8_t *p) const
{
    ::munmap(p, kChunkBytes);
}

void
PhysMem::checkRange(PAddr addr, std::uint64_t len) const
{
    if (addr + len > size_ || addr + len < addr) {
        sim::panic("PhysMem access out of range: addr=" +
                   std::to_string(addr) + " len=" + std::to_string(len) +
                   " size=" + std::to_string(size_));
    }
}

std::uint8_t *
PhysMem::chunkFor(PAddr addr) const
{
    Chunk &chunk = chunks_[addr / kChunkBytes];
    if (!chunk) {
        void *p = ::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                         0);
        if (p == MAP_FAILED)
            sim::panic("PhysMem: mmap of a 1 MiB chunk failed");
        chunk.reset(static_cast<std::uint8_t *>(p));
    }
    return chunk.get();
}

void
PhysMem::readSlow(PAddr addr, void *dst, std::uint64_t len) const
{
    checkRange(addr, len);
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const std::uint64_t off = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - off);
        std::memcpy(out, chunkFor(addr) + off, n);
        addr += n;
        out += n;
        len -= n;
    }
}

void
PhysMem::writeSlow(PAddr addr, const void *src, std::uint64_t len)
{
    checkRange(addr, len);
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const std::uint64_t off = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - off);
        std::memcpy(chunkFor(addr) + off, in, n);
        addr += n;
        in += n;
        len -= n;
    }
}

std::uint64_t
PhysMem::fetchAdd64(PAddr addr, std::uint64_t operand)
{
    const auto old = readT<std::uint64_t>(addr);
    writeT<std::uint64_t>(addr, old + operand);
    return old;
}

std::uint64_t
PhysMem::compareSwap64(PAddr addr, std::uint64_t expected,
                       std::uint64_t desired)
{
    const auto old = readT<std::uint64_t>(addr);
    if (old == expected)
        writeT<std::uint64_t>(addr, desired);
    return old;
}

void
PhysMem::fill(PAddr addr, std::uint8_t byte, std::uint64_t len)
{
    checkRange(addr, len);
    while (len > 0) {
        const std::uint64_t off = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - off);
        std::memset(chunkFor(addr) + off, byte, n);
        addr += n;
        len -= n;
    }
}

} // namespace sonuma::mem
