/**
 * @file
 * RDMA-over-PCIe baseline: a queueing model of the paper's comparison
 * system (Mellanox ConnectX-3 on PCIe Gen3 + 56 Gbps InfiniBand,
 * back-to-back hosts; §7.4, Table 2).
 *
 * This is a *substitute* for the paper's ConnectX-3 testbed, which a
 * simulator cannot run. The model charges the mechanism the paper identifies as the gap
 * soNUMA closes: every operation crosses the PCIe bus multiple times
 * (doorbell, DMA of payload and CQE), and all processing runs in the
 * adapter rather than in the node's coherence hierarchy. Defaults are
 * calibrated to the published behaviour: ~1.19 us 64 B read RTT,
 * ~50 Gbps PCIe-limited bandwidth, ~1.15 us fetch-and-add, and
 * ~8-9 M IOPS per QP engine.
 */

#ifndef SONUMA_BASELINE_RDMA_HH
#define SONUMA_BASELINE_RDMA_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/service.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace sonuma::baseline {

/** Tunable latency/bandwidth components of the RDMA path. */
struct RdmaParams
{
    sim::Tick doorbell = sim::nsToTicks(150);   //!< MMIO + inlined WQE
    sim::Tick adapterLat = sim::nsToTicks(70);  //!< per adapter pass
    sim::Tick adapterOcc = sim::nsToTicks(55);  //!< engine occupancy/op
    double pcieBandwidth = 6.25e9;              //!< 50 Gbps payload
    sim::Tick pcieLat = sim::nsToTicks(180);    //!< one-way transit
    double linkBandwidth = 7e9;                 //!< 56 Gbps InfiniBand
    sim::Tick linkLat = sim::nsToTicks(50);     //!< back-to-back cable
    sim::Tick memLat = sim::nsToTicks(60);      //!< host DRAM at target
    sim::Tick pollDetect = sim::nsToTicks(70);  //!< CQE polling at source
    std::uint32_t qpEngines = 1;                //!< parallel QP engines
    std::uint32_t maxOutstanding = 64;          //!< send queue depth
};

/**
 * A pair of hosts connected back-to-back through RDMA adapters.
 * Supports one-sided reads and fetch-and-add from host 0 to host 1.
 */
class RdmaPair
{
  public:
    RdmaPair(sim::EventQueue &eq, sim::StatRegistry &stats,
             const RdmaParams &params = {});

    /** One-sided read of @p len bytes; returns at CQE observation. */
    [[nodiscard]] sim::Task read(std::uint32_t len);

    /** Atomic fetch-and-add executed by the remote adapter. */
    [[nodiscard]] sim::Task fetchAdd();

    /**
     * Issue @p count reads of @p len bytes with up to maxOutstanding in
     * flight; completes when all have. Used for BW/IOPS measurements.
     */
    [[nodiscard]] sim::Task stream(std::uint32_t len, std::uint64_t count);

    const RdmaParams &params() const { return params_; }

  private:
    sim::EventQueue &eq_;
    RdmaParams params_;

    // One engine pool per adapter; reads pass each adapter twice.
    std::vector<std::unique_ptr<sim::ServiceResource>> srcEngines_;
    std::vector<std::unique_ptr<sim::ServiceResource>> dstEngines_;
    std::unique_ptr<sim::BandwidthPipe> srcPcie_;  //!< adapter -> host mem
    std::unique_ptr<sim::BandwidthPipe> dstPcie_;  //!< adapter <-> host mem
    std::unique_ptr<sim::BandwidthPipe> linkFwd_;
    std::unique_ptr<sim::BandwidthPipe> linkRev_;
    sim::Semaphore sq_;
    std::uint64_t rr_ = 0; //!< round-robin engine pick

    sim::Counter ops_;

    sim::Task oneOp(std::uint32_t len, bool atomic);
    sim::Task engine(std::vector<std::unique_ptr<sim::ServiceResource>> &p);
    sim::Task pipeSend(sim::BandwidthPipe &pipe, std::uint64_t bytes);
};

} // namespace sonuma::baseline

#endif // SONUMA_BASELINE_RDMA_HH
