#include "rmc/dedup_window.hh"

#include <bit>

namespace sonuma::rmc {

static_assert(sizeof(DedupWindow::Entry) == 24);

namespace {

std::size_t
hashTriple(sim::NodeId src, std::uint32_t tid, std::uint64_t offset)
{
    // (src, tid) times an odd constant is a bijection, so only a hash
    // collision, never a packing one, can share a home slot; splitmix64
    // then spreads the line-aligned offsets before masking.
    std::uint64_t x =
        offset ^ (((std::uint64_t(src) << 32) | tid) * 0x9e3779b97f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
}

} // namespace

DedupWindow::DedupWindow(std::uint32_t window)
    : ring_(window),
      table_(window ? std::bit_ceil(std::size_t(window) * 2) : 0)
{
}

std::size_t
DedupWindow::probe(sim::NodeId src, std::uint32_t tid,
                   std::uint64_t offset) const
{
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = hashTriple(src, tid, offset) & mask;;
         i = (i + 1) & mask) {
        const std::uint32_t v = table_[i];
        if (v == 0)
            return i;
        const Entry &e = ring_[v - 1];
        if (e.offset == offset && e.tid == tid && e.srcNid == src)
            return i;
    }
}

void
DedupWindow::erase(std::size_t hole)
{
    // Backward shift: an entry further along the run moves into the
    // hole unless its home slot lies after the hole (cyclically), where
    // a probe for it would never pass the hole.
    const std::size_t mask = table_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; table_[j] != 0;
         j = (j + 1) & mask) {
        const Entry &e = ring_[table_[j] - 1];
        const std::size_t home = hashTriple(e.srcNid, e.tid, e.offset) & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            table_[hole] = table_[j];
            hole = j;
        }
    }
    table_[hole] = 0;
}

void
DedupWindow::record(sim::NodeId src, std::uint32_t tid, std::uint64_t offset,
                    fab::Op replyOp, std::uint64_t oldValue)
{
    if (ring_.empty())
        return;
    const std::uint32_t slot = next_;
    Entry &e = ring_[slot];
    if (live_ == ring_.size()) {
        // FIFO eviction: drop the table slot of the record this ring
        // slot held, unless a newer record of its triple took it over.
        const std::size_t i = probe(e.srcNid, e.tid, e.offset);
        if (table_[i] == slot + 1)
            erase(i);
    } else {
        ++live_;
    }
    e = Entry{offset, oldValue, tid, src, replyOp};
    // Either the empty slot ending the run or an older record of the
    // same triple, which this one supersedes.
    table_[probe(src, tid, offset)] = slot + 1;
    next_ = slot + 1 == ring_.size() ? 0 : slot + 1;
}

} // namespace sonuma::rmc
