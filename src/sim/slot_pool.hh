/**
 * @file
 * Indexed slot pool for parked continuations.
 *
 * The zero-allocation pattern used throughout the timing models: state
 * that must survive a scheduled delay is stored in an indexed slot and
 * the event captures only {owner, slot} (12 bytes — always inline in
 * sim::Callback), no matter how large the parked state is. The slot
 * vector grows amortized during warm-up and is recycled thereafter.
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
    /** Park @p v; returns the slot index to capture in the event. */
    std::uint32_t
    put(T v)
    {
        std::uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        slots_[slot] = std::move(v);
        return slot;
    }

    /** Reclaim the slot and return the parked value. */
    T
    take(std::uint32_t slot)
    {
        T v = std::move(slots_[slot]);
        free_.push_back(slot);
        return v;
    }

    /** Read a parked value without reclaiming its slot. */
    T &
    peek(std::uint32_t slot)
    {
        return slots_[slot];
    }

    std::size_t capacity() const { return slots_.size(); }

    /** Pre-size for @p n concurrently parked values. */
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
