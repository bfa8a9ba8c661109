/**
 * @file
 * rmc::DedupWindow unit tests: the RRPP's replay-dedup window. A record
 * is identified by the full (srcNid, tid, offset) triple, so triples
 * that pack to one 64-bit key stay distinct; a seeded churn run agrees
 * with a FIFO reference model; a zero window costs no memory. Zero
 * allocations under churn are asserted in sim_alloc_test, which counts
 * them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "rmc/dedup_window.hh"
#include "sim/rng.hh"

namespace {

using sonuma::fab::Op;
using sonuma::rmc::DedupWindow;

/** The 64-bit key the window used to be indexed by. */
constexpr std::uint64_t
packedKey(std::uint16_t src, std::uint32_t tid, std::uint64_t offset)
{
    return (std::uint64_t(src) << 48) ^ (std::uint64_t(tid) << 16) ^ offset;
}

TEST(DedupWindow, PackedKeyCollisionKeepsTheOlderRecord)
{
    // Two writes from node 1 seen in SessionStress.MidFlightTeardownMatrix
    // whose triples pack to one key. Under a packed-key index the newer
    // record took over the older one's entry, so a replay of the older
    // write missed and would have executed twice.
    static_assert(packedKey(1, 917504, 43776) == packedKey(1, 917506, 174848));
    DedupWindow w(1024);
    w.record(1, 917504, 43776, Op::kWriteReply, 0);
    w.record(1, 917506, 174848, Op::kAtomicReply, 7);

    const DedupWindow::Entry *older = w.find(1, 917504, 43776);
    ASSERT_NE(older, nullptr)
        << "a replay of the older write would execute again";
    EXPECT_EQ(older->replyOp, Op::kWriteReply);
    const DedupWindow::Entry *newer = w.find(1, 917506, 174848);
    ASSERT_NE(newer, nullptr);
    EXPECT_EQ(newer->replyOp, Op::kAtomicReply);
    EXPECT_EQ(newer->oldValue, 7u);
}

struct Triple
{
    std::uint16_t src;
    std::uint32_t tid;
    std::uint64_t offset;

    bool operator==(const Triple &) const = default;
};

struct Record
{
    Triple t;
    std::uint64_t seq; //!< recorded as oldValue, so the newest is known
};

/** FIFO of the last W records; a lookup answers with the newest match. */
struct ReferenceWindow
{
    std::size_t window;
    std::deque<Record> fifo;

    const Record *
    find(const Triple &t) const
    {
        for (auto it = fifo.rbegin(); it != fifo.rend(); ++it)
            if (it->t == t)
                return &*it;
        return nullptr;
    }
};

/** A triple with @p t's packed key but another tid or src. */
Triple
collisionPartner(const Triple &t, sonuma::sim::Rng &rng)
{
    Triple p = t;
    if (rng.chance(0.5)) {
        p.tid ^= std::uint32_t(1) << rng.below(16);
        p.offset ^= std::uint64_t(t.tid ^ p.tid) << 16;
    } else {
        p.src ^= 1;
        p.offset ^= std::uint64_t(t.src ^ p.src) << 48;
    }
    return p;
}

void
expectAgrees(const DedupWindow &w, const ReferenceWindow &ref,
             const Triple &t, std::uint64_t step)
{
    const Record *want = ref.find(t);
    const DedupWindow::Entry *got = w.find(t.src, t.tid, t.offset);
    ASSERT_EQ(got != nullptr, want != nullptr)
        << "window " << ref.window << " step " << step << " triple ("
        << t.src << ", " << t.tid << ", " << t.offset << ")";
    if (want) {
        ASSERT_EQ(got->oldValue, want->seq) << "step " << step;
        ASSERT_EQ(got->replyOp, want->seq % 2 ? Op::kAtomicReply
                                              : Op::kWriteReply);
    }
}

TEST(DedupWindow, ChurnAgreesWithAFifoReferenceModel)
{
    for (const std::uint32_t window : {1u, 2u, 3u, 64u, 1024u}) {
        sonuma::sim::Rng rng(window);
        DedupWindow w(window);
        ReferenceWindow ref{window, {}};
        std::vector<Triple> evicted;
        std::uint64_t collisions = 0;
        std::uint64_t rerecords = 0;
        auto liveTriple = [&] {
            return ref.fifo[rng.below(ref.fifo.size())].t;
        };
        const std::uint64_t steps = window == 1 ? 4'000 : 20'000;
        for (std::uint64_t step = 0; step < steps; ++step) {
            Triple t{std::uint16_t(rng.below(4)),
                     std::uint32_t(rng.below(1u << 20)),
                     rng.below(1u << 20) * 64};
            const std::uint64_t kind = ref.fifo.empty() ? 0 : rng.below(4);
            if (kind == 1)
                t = collisionPartner(liveTriple(), rng);
            else if (kind == 2)
                t = liveTriple();
            else if (kind == 3 && !evicted.empty())
                t = evicted[rng.below(evicted.size())];

            for (const Record &r : ref.fifo) {
                collisions += r.t != t &&
                              packedKey(r.t.src, r.t.tid, r.t.offset) ==
                                  packedKey(t.src, t.tid, t.offset);
                rerecords += r.t == t;
            }
            w.record(t.src, t.tid, t.offset,
                     step % 2 ? Op::kAtomicReply : Op::kWriteReply, step);
            ref.fifo.push_back({t, step});
            if (ref.fifo.size() > window) {
                evicted.push_back(ref.fifo.front().t);
                ref.fifo.pop_front();
                if (evicted.size() > 64)
                    evicted.erase(evicted.begin());
            }

            ASSERT_EQ(w.size(), ref.fifo.size());
            expectAgrees(w, ref, t, step);
            expectAgrees(w, ref, liveTriple(), step);
            expectAgrees(w, ref, collisionPartner(liveTriple(), rng), step);
            if (!evicted.empty())
                expectAgrees(w, ref, evicted[rng.below(evicted.size())],
                             step);
            if (HasFatalFailure())
                return;
        }
        for (const Record &r : ref.fifo)
            expectAgrees(w, ref, r.t, steps);
        EXPECT_GT(collisions, steps / 8) << "window " << window;
        EXPECT_GT(rerecords, steps / 8) << "window " << window;
    }
}

TEST(DedupWindow, ZeroWindowAllocatesNothingAndRemembersNothing)
{
    DedupWindow w(0);
    EXPECT_EQ(w.bytes(), 0u);
    w.record(1, 2, 64, Op::kWriteReply, 0);
    EXPECT_EQ(w.size(), 0u);
    EXPECT_EQ(w.find(1, 2, 64), nullptr);
    // The default: 1024 records of 24 B and 2048 four-byte table slots.
    EXPECT_EQ(DedupWindow(1024).bytes(), 32u * 1024);
}

} // namespace
