/**
 * @file
 * The RMC's Memory Access Queue (paper §4.3).
 *
 * All RMC memory traffic — application data, WQ/CQ interactions, page
 * table walks, ITT and CT accesses — funnels through the MAQ into the
 * RMC's private L1. The MAQ bounds the number of in-flight accesses
 * (32 in Table 1, matching the L1's MSHRs), supports out-of-order
 * completion, and provides store-to-load forwarding.
 *
 * Zero-allocation design: in-flight accesses live in a fixed table of
 * MAQ slots (the completion passed down to the cache captures only
 * {maq, slot} and stays inline in sim::Callback), the overflow queue is
 * a ring buffer, and store-to-load forwarding subscribes waiters on the
 * in-flight store's slot instead of a per-line hash map. The slot
 * indices of active stores are kept in a packed list, so a load's
 * forwarding lookup scans only the stores in flight, not every slot.
 */

#ifndef SONUMA_RMC_MAQ_HH
#define SONUMA_RMC_MAQ_HH

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"

namespace sonuma::rmc {

/**
 * Bounded queue of memory accesses feeding the RMC's L1 port.
 *
 * Usage is awaitable: `co_await maq.read(pa)` suspends the issuing
 * pipeline transaction until the access commits. When the queue is full
 * the awaiter additionally waits for a free entry (structural hazard),
 * which is how the MAQ depth bounds RMC throughput.
 */
class Maq
{
  public:
    Maq(sim::EventQueue &eq, sim::StatRegistry &stats,
        const std::string &name, mem::L1Cache &l1, std::uint32_t entries);

    /** Timed read of the line containing @p pa. */
    auto
    read(mem::PAddr pa)
    {
        return AccessAwaiter{*this, pa, false};
    }

    /** Timed write (exclusive access) of the line containing @p pa. */
    auto
    write(mem::PAddr pa)
    {
        return AccessAwaiter{*this, pa, true};
    }

    /**
     * Timed full-line write through the RMC's cache-line-wide interface:
     * allocates on miss without fetching stale data.
     */
    auto
    writeFullLine(mem::PAddr pa)
    {
        return AccessAwaiter{*this, pa, true, true};
    }

    std::uint32_t inflight() const { return inflight_; }
    std::uint32_t capacity() const { return capacity_; }
    std::uint64_t forwardCount() const { return forwards_.value(); }

    struct AccessAwaiter
    {
        Maq &maq;
        mem::PAddr pa;
        bool isWrite;
        bool fullLine = false;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            maq.submit(pa, isWrite, fullLine, [h] { h.resume(); });
        }

        void await_resume() const noexcept {}
    };

    /**
     * Callback-style submission (used by the awaiter). Queues when the
     * MAQ is full; applies store-to-load forwarding for loads that hit
     * an in-flight store to the same line.
     */
    void submit(mem::PAddr pa, bool isWrite, bool fullLine,
                sim::Callback done);

  private:
    struct Pending
    {
        mem::PAddr pa = 0;
        bool isWrite = false;
        bool fullLine = false;
        sim::Callback done;
    };

    /** One occupied MAQ slot (an access issued to the L1). */
    struct Slot
    {
        mem::PAddr line = 0;
        bool isWrite = false;
        bool active = false;
        sim::Callback done;
        // Loads forwarded from this in-flight store. The vector keeps
        // its capacity across slot reuse, so it stops allocating once
        // the workload's forwarding fan-out has been seen.
        std::vector<sim::Callback> forwardedLoads;
    };

    sim::EventQueue &eq_;
    mem::L1Cache &l1_;
    std::uint32_t capacity_;
    std::uint32_t inflight_ = 0;
    std::vector<Slot> slots_;              //!< capacity_ entries
    std::vector<std::uint32_t> freeSlots_;
    std::vector<std::uint32_t> activeStores_; //!< slots of stores in flight
    sim::RingBuffer<Pending> waiting_;

    sim::Counter reads_;
    sim::Counter writes_;
    sim::Counter forwards_;
    sim::Counter structuralStalls_;

    void issue(mem::PAddr pa, bool isWrite, bool fullLine,
               sim::Callback done);
    void complete(std::uint32_t slotIdx);
    void release();

    /**
     * Any in-flight store to @p line (lowest slot index, which under
     * freelist reuse is unrelated to issue age), or nullptr.
     */
    Slot *findInflightStore(mem::PAddr line);

    static mem::PAddr
    lineOf(mem::PAddr pa)
    {
        return pa & ~mem::PAddr(63);
    }
};

} // namespace sonuma::rmc

#endif // SONUMA_RMC_MAQ_HH
