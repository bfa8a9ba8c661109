/**
 * @file
 * A FIFO-serialized link with one scheduled drain event.
 *
 * Shared by the crossbar egress pipes and the torus router ports: a
 * packet occupies the link's serialization horizon, then arrives a fixed
 * latency after its serialization completes. Because serialization is
 * FIFO, arrival ticks are monotone per link, so a single scheduled drain
 * event (at the head's arrival tick) replaces per-packet closures — the
 * drain callback captures only the link's identity and stays inline in
 * sim::Callback.
 */

#ifndef SONUMA_SIM_SERIALIZED_LINK_HH
#define SONUMA_SIM_SERIALIZED_LINK_HH

#include <algorithm>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/types.hh"

namespace sonuma::sim {

template <typename Payload>
class SerializedLink
{
  public:
    bool empty() const { return q_.empty(); }

    /**
     * Admit a packet: serialize for @p ser behind whatever is already on
     * the link, then propagate for @p latency.
     */
    void
    push(Tick now, Tick ser, Tick latency, Payload payload)
    {
        const Tick start = std::max(now, busyUntil_);
        busyUntil_ = start + ser;
        totalBusy_ += ser;
        q_.push(Entry{busyUntil_ + latency, std::move(payload)});
    }

    /**
     * Cumulative serialization ticks consumed up to @p now: total busy
     * time charged minus the portion still scheduled in the future.
     * Sampling this as a rate over wall (simulated) time yields the
     * link's utilization fraction.
     */
    Tick
    busyThrough(Tick now) const
    {
        return totalBusy_ - (busyUntil_ > now ? busyUntil_ - now : 0);
    }

    /** Packets serialized or in flight, not yet delivered. */
    std::size_t queued() const { return q_.size(); }

    /**
     * Schedule @p drainEvent at the head's arrival tick unless a drain
     * is already pending. @p drainEvent must call drain() on this link.
     * A credit returned mid-drain can re-arm while the head is already
     * due, so the schedule tick is clamped to now. The drain event's
     * touch hint is the head entry, the packet drain() delivers first.
     */
    template <typename DrainEvent>
    void
    arm(EventQueue &eq, DrainEvent &&drainEvent)
    {
        if (drainArmed_ || q_.empty())
            return;
        drainArmed_ = true;
        const Entry &head = q_.front();
        eq.schedule(std::max(head.arriveAt, eq.now()),
                    std::forward<DrainEvent>(drainEvent), &head);
    }

    /**
     * Deliver every packet whose arrival tick has been reached, then
     * re-arm for the next head if packets remain. @p deliver receives
     * each Payload; @p drainEvent is the same event used with arm().
     * Safe against re-entrant push()es from inside @p deliver (new
     * arrivals are strictly later than now, so the loop terminates and
     * the re-arm picks them up).
     */
    template <typename Deliver, typename DrainEvent>
    void
    drain(EventQueue &eq, Deliver &&deliver, DrainEvent &&drainEvent)
    {
        drainArmed_ = false;
        while (!q_.empty() && q_.front().arriveAt <= eq.now()) {
            Entry e = q_.popFront();
            deliver(e.payload);
        }
        arm(eq, std::forward<DrainEvent>(drainEvent));
    }

  private:
    struct Entry
    {
        Tick arriveAt = 0;
        Payload payload;
    };

    RingBuffer<Entry> q_{4};
    Tick busyUntil_ = 0;
    Tick totalBusy_ = 0;
    bool drainArmed_ = false;
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_SERIALIZED_LINK_HH
