/**
 * @file
 * Serial service resources (single-server queueing stations).
 *
 * Used wherever one physical resource serializes work items: a DRAM data
 * bus, a link serializing packets, a software "RMCemu" thread in the
 * development-platform configuration, an RDMA adapter's processing engine.
 */

#ifndef SONUMA_SIM_SERVICE_HH
#define SONUMA_SIM_SERVICE_HH

#include <coroutine>
#include <cstdint>
#include <string>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace sonuma::sim {

/**
 * A single server with FIFO order: each job occupies the server for its
 * service time; jobs arriving while busy queue behind it.
 *
 * Implemented with a "busy-until" horizon rather than an explicit queue —
 * jobs are assigned sequential service windows at submit time, which is
 * exact for FIFO single-server semantics and costs O(1) per job.
 */
class ServiceResource
{
  public:
    ServiceResource(EventQueue &eq, std::string name)
        : eq_(eq), name_(std::move(name))
    {}

    /**
     * Submit a job needing @p serviceTime of the resource; @p done fires at
     * its completion time. @p touch is the completion event's touch
     * hint (sim/event_queue.hh).
     *
     * @return the completion tick.
     */
    Tick
    submit(Tick serviceTime, Callback done = nullptr,
           const void *touch = nullptr)
    {
        const Tick start = std::max(eq_.now(), busyUntil_);
        busyUntil_ = start + serviceTime;
        totalBusy_ += serviceTime;
        ++jobs_;
        if (done)
            eq_.schedule(busyUntil_, std::move(done), touch);
        return busyUntil_;
    }

    /** Awaitable submit for coroutine users. */
    auto
    use(Tick serviceTime)
    {
        struct UseAwaiter
        {
            ServiceResource &res;
            Tick serviceTime;

            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                res.submit(serviceTime, [h] { h.resume(); }, h.address());
            }

            void await_resume() const noexcept {}
        };
        return UseAwaiter{*this, serviceTime};
    }

    /** Aggregate busy time (for utilization stats). */
    Tick totalBusy() const { return totalBusy_; }

    /** Number of jobs served or in service. */
    std::uint64_t jobs() const { return jobs_; }

    const std::string &name() const { return name_; }

  private:
    EventQueue &eq_;
    std::string name_;
    Tick busyUntil_ = 0;
    Tick totalBusy_ = 0;
    std::uint64_t jobs_ = 0;
};

/**
 * A bandwidth-limited pipe: jobs of a given byte size occupy the pipe for
 * size/bandwidth; delivery additionally incurs a fixed latency after
 * serialization completes. Models links and buses.
 */
class BandwidthPipe
{
  public:
    /**
     * @param bytes_per_sec serialization bandwidth
     * @param latency propagation delay added after serialization
     */
    BandwidthPipe(EventQueue &eq, std::string name, double bytes_per_sec,
                  Tick latency)
        : server_(eq, std::move(name)), eq_(eq),
          bytesPerSec_(bytes_per_sec), latency_(latency)
    {}

    /** Ticks needed to serialize @p bytes onto the pipe. */
    Tick
    serializationTime(std::uint64_t bytes) const
    {
        const double sec = static_cast<double>(bytes) / bytesPerSec_;
        return static_cast<Tick>(sec * 1e12);
    }

    /**
     * Send @p bytes; @p deliver fires when the last byte arrives at the
     * far end (serialization under FIFO contention + propagation).
     *
     * @return the delivery tick.
     */
    Tick
    send(std::uint64_t bytes, Callback deliver)
    {
        const Tick serialized =
            server_.submit(serializationTime(bytes), nullptr);
        const Tick arrival = serialized + latency_;
        if (deliver)
            eq_.schedule(arrival, std::move(deliver));
        return arrival;
    }

    Tick latency() const { return latency_; }
    double bandwidth() const { return bytesPerSec_; }
    ServiceResource &server() { return server_; }

  private:
    ServiceResource server_;
    EventQueue &eq_;
    double bytesPerSec_;
    Tick latency_;
};

} // namespace sonuma::sim

#endif // SONUMA_SIM_SERVICE_HH
