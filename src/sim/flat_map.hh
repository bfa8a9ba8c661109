/**
 * @file
 * Open-addressed hash map over flat vector storage.
 *
 * Replaces std::unordered_map on simulation hot paths: a node-based map
 * allocates (and frees) one heap node per insert (erase), so structures
 * that track a growing-then-stable working set — the L2 directory being
 * the canonical case — would keep touching the allocator in steady
 * state. This map stores slots inline, probes linearly, and allocates
 * only when its live entries pass the load factor: an amortized warm-up
 * cost, zero in steady state, exactly like sim::RingBuffer and
 * sim::SlotPool.
 *
 * Erase uses backward-shift deletion: later entries of the probe run
 * move back into the hole, so the table never holds tombstones and a
 * bounded live set under any erase/insert churn (the RRPP dedup
 * window's FIFO, the L2's evict-then-install) keeps its capacity
 * forever. The shift moves entries, so a pointer from find() is valid
 * only until the next insert or erase. Iteration order is deliberately
 * not exposed: the simulator must never depend on hash order for
 * determinism.
 */

#ifndef SONUMA_SIM_FLAT_MAP_HH
#define SONUMA_SIM_FLAT_MAP_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sonuma::sim {

template <typename K, typename V>
class FlatMap
{
  public:
    explicit FlatMap(std::size_t initialCapacity = 16)
    {
        std::size_t cap = 16;
        while (cap < initialCapacity)
            cap *= 2;
        slots_.resize(cap);
    }

    std::size_t size() const { return full_; }
    bool empty() const { return full_ == 0; }
    /** Slot count; changes only when the live entries outgrow it. */
    std::size_t capacity() const { return slots_.size(); }

    /** Pointer to the mapped value, or nullptr. */
    V *
    find(const K &key)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (!s.full)
                return nullptr;
            if (s.key == key)
                return &s.val;
        }
    }

    const V *
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** Mapped value of a key that must be present. */
    V &
    get(const K &key)
    {
        V *v = find(key);
        assert(v && "FlatMap::get of an absent key");
        return *v;
    }

    /**
     * Insert @p key -> @p val; replaces the value if the key exists.
     * @return reference to the mapped value.
     */
    V &
    insert(const K &key, V val)
    {
        maybeGrow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (!s.full) {
                s.full = true;
                s.key = key;
                s.val = std::move(val);
                ++full_;
                return s.val;
            }
            if (s.key == key) {
                s.val = std::move(val);
                return s.val;
            }
        }
    }

    /** @retval true if the key was present and removed. */
    bool
    erase(const K &key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = hash(key) & mask;
        for (;; hole = (hole + 1) & mask) {
            if (!slots_[hole].full)
                return false;
            if (slots_[hole].key == key)
                break;
        }
        // Backward shift: an entry further along the run moves into the
        // hole unless its home slot lies after the hole (cyclically),
        // where a probe for it would never pass the hole.
        for (std::size_t j = (hole + 1) & mask; slots_[j].full;
             j = (j + 1) & mask) {
            const std::size_t home = hash(slots_[j].key) & mask;
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                slots_[hole].key = slots_[j].key;
                slots_[hole].val = std::move(slots_[j].val);
                hole = j;
            }
        }
        slots_[hole].full = false;
        slots_[hole].val = V{}; // release held resources eagerly
        --full_;
        return true;
    }

  private:
    struct Slot
    {
        bool full = false;
        K key{};
        V val{};
    };

    std::vector<Slot> slots_;
    std::size_t full_ = 0; //!< live entries

    static std::size_t
    hash(const K &key)
    {
        // splitmix64 finalizer: line addresses are highly regular, so
        // spread them before masking.
        auto x = static_cast<std::uint64_t>(key);
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    void
    maybeGrow()
    {
        if ((full_ + 1) * 10 < slots_.size() * 7)
            return;
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        full_ = 0;
        for (Slot &s : old) {
            if (s.full)
                insert(s.key, std::move(s.val));
        }
    }
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_FLAT_MAP_HH
