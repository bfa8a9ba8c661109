/**
 * @file
 * DDR3-1600 single-channel DRAM timing model (DRAMSim2 substitute).
 *
 * Models the two properties the paper's results rest on (Table 1):
 * ~60 ns loaded access latency and 12.8 GB/s peak channel bandwidth with a
 * ~9.6 GB/s practical streaming ceiling. The model tracks per-bank open
 * rows (row-buffer hits vs. misses), a shared data bus, and uses FR-FCFS
 * scheduling (row hits first, then oldest).
 */

#ifndef SONUMA_MEM_DRAM_HH
#define SONUMA_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/callback.hh"
#include "sim/ring_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sonuma::mem {

/** Configuration for the DRAM channel (defaults: DDR3-1600, 1 channel). */
struct DramParams
{
    std::uint32_t banks = 8;
    std::uint32_t rowBytes = 8192;        //!< row-buffer size per bank
    sim::Tick tRcd = sim::nsToTicks(13.75);  //!< activate -> column
    sim::Tick tCas = sim::nsToTicks(13.75);  //!< column -> first data
    sim::Tick tRp = sim::nsToTicks(13.75);   //!< precharge
    sim::Tick busTransfer = sim::nsToTicks(5.0); //!< 64 B @ 12.8 GB/s
    sim::Tick controllerDelay = sim::nsToTicks(10.0); //!< queue+ctrl fixed
    std::uint32_t queueDepth = 64;        //!< max in-flight requests
};

/**
 * A single DRAM channel servicing 64-byte accesses.
 *
 * Requests complete via callback; reads and writes share bank/bus timing
 * (write data is posted — the caller does not wait for the write recovery).
 */
class DramChannel
{
  public:
    DramChannel(sim::EventQueue &eq, sim::StatRegistry &stats,
                const std::string &name, const DramParams &params = {});

    /**
     * Issue a 64-byte access at physical address @p addr.
     *
     * @param write true for a write (callback fires when data is accepted)
     * @param done completion callback (may be null for posted writes)
     * @retval false if the controller queue is full (caller must retry).
     */
    bool access(PAddr addr, bool write, sim::Callback done);

    /** True if a new request would be rejected. */
    bool full() const { return queue_.size() >= params_.queueDepth; }

    const DramParams &params() const { return params_; }

    /** Fraction of elapsed time the data bus was busy. */
    double busUtilization() const;

  private:
    struct Request
    {
        PAddr addr = 0;
        bool write = false;
        sim::Callback done;
        sim::Tick arrival = 0;
    };

    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        sim::Tick readyAt = 0; //!< earliest next activate/column command
    };

    sim::EventQueue &eq_;
    DramParams params_;
    std::vector<Bank> banks_;
    std::vector<Request> queue_;
    sim::Tick busBusyUntil_ = 0;
    sim::Tick busBusyTotal_ = 0;
    bool drainScheduled_ = false;

    sim::Counter reads_;
    sim::Counter writes_;
    sim::Counter rowHits_;
    sim::Counter rowMisses_;
    sim::Histogram latency_;

    std::uint32_t bankOf(PAddr addr) const;
    std::uint64_t rowOf(PAddr addr) const;
    void scheduleDrain(sim::Tick when);
    void drain();
};

} // namespace sonuma::mem

#endif // SONUMA_MEM_DRAM_HH
