/**
 * @file
 * Indexed slot pool: the one table of recycled indices.
 *
 * The zero-allocation pattern used throughout the timing models: state
 * that must survive a scheduled delay is stored in an indexed slot and
 * the event captures only {owner, slot} (12 bytes — always inline in
 * sim::Callback), no matter how large the parked state is. The slot
 * vector grows amortized during warm-up and is recycled thereafter;
 * release() never allocates, because the free list is sized with the
 * slots.
 *
 * Reuse rule: acquire() hands out the most recently released slot, or
 * else the next fresh index (0, 1, 2, ...). Where an index is simulated
 * (an ITT entry's address, the MAQ slot a load forwards from) this
 * order is part of the model.
 *
 * Re-entrancy invariant, centralized here: take() moves the value out
 * and frees the slot *before* returning, so the caller can invoke any
 * contained callback afterwards even if it re-enters put().
 */

#ifndef SONUMA_SIM_SLOT_POOL_HH
#define SONUMA_SIM_SLOT_POOL_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace sonuma::sim {

template <typename T>
class SlotPool
{
  public:
    /**
     * Claim a slot: the most recently released one, or else the next
     * fresh index. A reused slot keeps its contents; a fresh one holds
     * T{}. A fresh slot may move every slot unless reserve() covered it.
     */
    std::uint32_t
    acquire()
    {
        if (free_.empty()) {
            slots_.emplace_back();
            // Every slot can be free at once.
            free_.reserve(slots_.capacity());
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /** Park @p v; returns the slot index to capture in the event. */
    std::uint32_t
    put(T v)
    {
        const std::uint32_t slot = acquire();
        slots_[slot] = std::move(v);
        return slot;
    }

    T &operator[](std::uint32_t slot) { return slots_[slot]; }

    /** Return @p slot to the pool; its contents stay as they are. */
    void release(std::uint32_t slot) { free_.push_back(slot); }

    /** Reclaim the slot and return the parked value. */
    T
    take(std::uint32_t slot)
    {
        T v = std::move(slots_[slot]);
        release(slot);
        return v;
    }

    /** Slots ever handed out: every index below this one is valid. */
    std::size_t size() const { return slots_.size(); }

    /** Slots acquired and not yet released. */
    std::size_t live() const { return slots_.size() - free_.size(); }

    /** Pre-size for @p n concurrently live slots: up to @p n, no slot
     *  moves. */
    void
    reserve(std::size_t n)
    {
        slots_.reserve(n);
        free_.reserve(n);
    }

  private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_SLOT_POOL_HH
