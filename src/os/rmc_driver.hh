/**
 * @file
 * The RMC device driver (paper §5.1).
 *
 * Responsibilities mirror the paper: manage the context namespace
 * (via the cluster ContextRegistry), register context segments (pages
 * pinned — our address spaces map eagerly, which is equivalent), and
 * create and register queue pairs in the Context Table. Fabric failures
 * never reach the driver: the RMC rides them out by retransmission.
 *
 * Because the RMC shares the OS page tables through cache coherence,
 * registration does NOT copy any translation state into the device —
 * the CT entry simply records the process's page-table root.
 */

#ifndef SONUMA_OS_RMC_DRIVER_HH
#define SONUMA_OS_RMC_DRIVER_HH

#include <cstdint>
#include <vector>

#include "os/context_registry.hh"
#include "os/node_os.hh"
#include "rmc/rmc.hh"

namespace sonuma::os {

/** Handle returned by createQueuePair. */
struct QpHandle
{
    sim::CtxId ctx = 0;
    std::uint32_t qpIndex = 0;
    vm::VAddr wqBase = 0;
    vm::VAddr cqBase = 0;
    std::uint32_t entries = 0;
    Process *process = nullptr;

    vm::VAddr
    wqEntryVa(std::uint32_t idx) const
    {
        return wqBase + std::uint64_t(idx) * sizeof(rmc::WqEntry);
    }

    vm::VAddr
    cqEntryVa(std::uint32_t idx) const
    {
        return cqBase + std::uint64_t(idx) * sizeof(rmc::CqEntry);
    }
};

class RmcDriver
{
  public:
    RmcDriver(NodeOs &os, rmc::Rmc &rmc, ContextRegistry &registry);

    /**
     * Open context @p ctx on behalf of @p proc (the ioctl path).
     * Performs the registry permission check; a process must open a
     * context before registering segments or QPs in it.
     *
     * @throws PermissionError if the uid may not open the context.
     */
    void openContext(Process &proc, sim::CtxId ctx);

    /**
     * Register @p proc's [base, base+bytes) as this node's segment of
     * context @p ctx. Pages must already be mapped (pinned).
     */
    void registerSegment(Process &proc, sim::CtxId ctx, vm::VAddr base,
                         std::uint64_t bytes);

    /**
     * Allocate WQ/CQ rings in @p proc's memory and register them in the
     * CT. Multi-threaded processes may register several QPs per context
     * (paper §4.2).
     */
    QpHandle createQueuePair(Process &proc, sim::CtxId ctx);

    /**
     * Unregister a QP (its ring memory stays with the process). Safe
     * mid-flight: the descriptor is invalidated and the RMC fences the
     * QP — ops already completed keep their completions, every other
     * posted op gets exactly one CqStatus::kFlushed completion, and
     * tids/epochs are reclaimed. Idempotent.
     */
    void destroyQueuePair(const QpHandle &qp);

    /**
     * Tear down context @p ctx on this node: destroy-and-fence every
     * registered QP (kFlushed completions as in destroyQueuePair), then
     * remove the CT entry — after which this node answers remote
     * requests for the context with bad-context error replies.
     */
    void unregisterContext(Process &proc, sim::CtxId ctx);

    rmc::Rmc &rmc() { return rmc_; }
    NodeOs &os() { return os_; }
    ContextRegistry &registry() { return registry_; }

  private:
    NodeOs &os_;
    rmc::Rmc &rmc_;
    ContextRegistry &registry_;

    struct OpenRecord
    {
        sim::CtxId ctx;
        std::uint32_t pid;
    };
    std::vector<OpenRecord> opens_;

    bool hasOpened(const Process &proc, sim::CtxId ctx) const;
    void requireOpened(const Process &proc, sim::CtxId ctx) const;
};

} // namespace sonuma::os

#endif // SONUMA_OS_RMC_DRIVER_HH
