/**
 * @file
 * Event queue implementation (cold paths; the hot path is inline in the
 * header).
 */

#include "sim/event_queue.hh"

namespace sonuma::sim {

Tick
EventQueue::runUntil(Tick limit)
{
    while (const HeapEntry *top = liveTop()) {
        if (top->tick > limit)
            break;
        step();
    }
    if (now_ < limit)
        now_ = limit;
    return now_;
}

void
EventQueue::reserve(std::size_t events)
{
    heap_.reserve(events);
    freeSlots_.reserve(events);
    if (slots_.size() < events) {
        const auto first = static_cast<std::uint32_t>(slots_.size());
        slots_.resize(events);
        // Hand the new slots out freelist-LIFO starting from the lowest
        // index so warm runs and cold runs allocate slots identically.
        for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size());
             i > first; --i)
            freeSlots_.push_back(i - 1);
    }
}

} // namespace sonuma::sim
