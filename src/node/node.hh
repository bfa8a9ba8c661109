/**
 * @file
 * One soNUMA node: cores + private L1s + shared L2 + DRAM + RMC (with
 * its own coherent L1) + NI + OS + driver, wired per paper Fig. 2.
 */

#ifndef SONUMA_NODE_NODE_HH
#define SONUMA_NODE_NODE_HH

#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "node/core.hh"
#include "os/context_registry.hh"
#include "os/node_os.hh"
#include "os/rmc_driver.hh"
#include "rmc/rmc.hh"
#include "sim/simulation.hh"

namespace sonuma::node {

/** Full configuration of one node (defaults = paper Table 1). */
struct NodeParams
{
    std::uint32_t cores = 1;
    std::uint64_t physMemBytes = 256ull << 20;
    mem::CacheParams l1;          //!< 32 KB 2-way, 3 cycles
    mem::L2Cache::Params l2;      //!< 4 MB 16-way, 6 cycles
    mem::DramParams dram;         //!< DDR3-1600
    rmc::RmcParams rmc;           //!< simulated-hardware preset
    fab::NiParams ni;
    double coreFreqGhz = 2.0;
};

class Node
{
  public:
    Node(sim::Simulation &sim, const std::string &name, sim::NodeId nid,
         fab::Fabric &fabric, os::ContextRegistry &registry,
         const NodeParams &params = {});

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    sim::NodeId nodeId() const { return nid_; }
    Core &core(std::size_t i) { return *cores_.at(i); }
    rmc::Rmc &rmc() { return *rmc_; }
    os::NodeOs &os() { return *os_; }
    os::RmcDriver &driver() { return *driver_; }
    mem::PhysMem &phys() { return *phys_; }
    mem::L2Cache &l2() { return *l2_; }
    fab::NetworkInterface &ni() { return *ni_; }
    const NodeParams &params() const { return params_; }

  private:
    sim::NodeId nid_;
    NodeParams params_;

    std::unique_ptr<mem::PhysMem> phys_;
    std::unique_ptr<mem::DramChannel> dram_;
    std::unique_ptr<mem::L2Cache> l2_;
    std::vector<std::unique_ptr<mem::L1Cache>> coreL1s_;
    std::unique_ptr<mem::L1Cache> rmcL1_;
    std::unique_ptr<fab::NetworkInterface> ni_;
    std::unique_ptr<os::NodeOs> os_;
    std::unique_ptr<rmc::Rmc> rmc_;
    std::unique_ptr<os::RmcDriver> driver_;
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace sonuma::node

#endif // SONUMA_NODE_NODE_HH
