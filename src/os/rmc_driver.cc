/**
 * @file
 * RMC driver implementation.
 */

#include "os/rmc_driver.hh"

#include <stdexcept>

#include "sim/log.hh"

namespace sonuma::os {

RmcDriver::RmcDriver(NodeOs &os, rmc::Rmc &rmc, ContextRegistry &registry)
    : os_(os), rmc_(rmc), registry_(registry)
{
}

bool
RmcDriver::hasOpened(const Process &proc, sim::CtxId ctx) const
{
    for (const auto &rec : opens_) {
        if (rec.ctx == ctx && rec.pid == proc.pid())
            return true;
    }
    return false;
}

void
RmcDriver::requireOpened(const Process &proc, sim::CtxId ctx) const
{
    if (!hasOpened(proc, ctx))
        throw PermissionError("pid " + std::to_string(proc.pid()) +
                              " has not opened ctx_id " +
                              std::to_string(ctx));
}

void
RmcDriver::openContext(Process &proc, sim::CtxId ctx)
{
    registry_.checkOpen(ctx, proc.uid());
    if (!hasOpened(proc, ctx))
        opens_.push_back(OpenRecord{ctx, proc.pid()});
}

void
RmcDriver::registerSegment(Process &proc, sim::CtxId ctx, vm::VAddr base,
                           std::uint64_t bytes)
{
    requireOpened(proc, ctx);
    if (bytes == 0)
        sim::fatal("empty context segment");
    // Pinning check: the whole range must be mapped.
    for (vm::VAddr va = vm::pageBase(base); va < base + bytes;
         va += vm::kPageBytes) {
        if (!proc.addressSpace().mapped(va))
            sim::fatal("context segment contains unmapped pages");
    }

    rmc::CtEntry entry;
    if (const rmc::CtEntry *old = rmc_.contextTable().entry(ctx))
        entry = *old; // preserve registered QPs on re-registration
    entry.valid = true;
    entry.segBase = base;
    entry.segBytes = bytes;
    entry.ptRoot = proc.addressSpace().pageTable().root();
    rmc_.contextTable().install(ctx, entry);
}

QpHandle
RmcDriver::createQueuePair(Process &proc, sim::CtxId ctx)
{
    requireOpened(proc, ctx);

    rmc::CtEntry *entry = rmc_.contextTable().entryMutable(ctx);
    if (!entry) {
        // A QP without a registered segment is legal (a pure client
        // node): create a CT entry with an empty segment.
        rmc::CtEntry fresh;
        fresh.valid = true;
        fresh.segBase = 0;
        fresh.segBytes = 0;
        fresh.ptRoot = proc.addressSpace().pageTable().root();
        rmc_.contextTable().install(ctx, fresh);
        entry = rmc_.contextTable().entryMutable(ctx);
    }
    if (entry->qps.size() >= rmc_.params().maxQpsPerContext)
        throw std::invalid_argument(
            "createQueuePair: ctx " + std::to_string(ctx) +
            " already holds " + std::to_string(entry->qps.size()) +
            " of maxQpsPerContext=" +
            std::to_string(rmc_.params().maxQpsPerContext) +
            " queue pairs; note each RmcSession registers qpCount QPs "
            "and Workload adds a one-QP barrier session per node — "
            "raise RmcParams::maxQpsPerContext or lower the fan-out");

    const std::uint32_t entries = rmc_.params().qpEntries;
    rmc::QpDescriptor qp;
    qp.valid = true;
    qp.entries = entries;
    qp.wqBase = proc.alloc(entries * sizeof(rmc::WqEntry));
    qp.cqBase = proc.alloc(entries * sizeof(rmc::CqEntry));
    entry->qps.push_back(qp);

    QpHandle handle;
    handle.ctx = ctx;
    handle.qpIndex = static_cast<std::uint32_t>(entry->qps.size()) - 1;
    handle.wqBase = qp.wqBase;
    handle.cqBase = qp.cqBase;
    handle.entries = entries;
    handle.process = &proc;

    // Installing again refreshes the in-memory CT image and invalidates
    // the CT$ (the driver wrote behind it).
    rmc_.contextTable().install(ctx, *entry);
    // Register the per-QP observability series now, at setup time, so
    // sampling never allocates inside a measured window.
    rmc_.noteQpCreated(ctx, handle.qpIndex);
    return handle;
}

void
RmcDriver::destroyQueuePair(const QpHandle &qp)
{
    rmc::CtEntry *entry = rmc_.contextTable().entryMutable(qp.ctx);
    if (!entry || qp.qpIndex >= entry->qps.size() ||
        !entry->qps[qp.qpIndex].valid)
        return; // unknown or already destroyed: idempotent
    // Invalidate first (new posts/doorbells bounce off), then fence:
    // every op already in flight through this QP gets exactly one
    // CqStatus::kFlushed completion, tids/epochs are reclaimed. Both
    // steps are synchronous, so no pipeline coroutine can interleave.
    entry->qps[qp.qpIndex].valid = false;
    rmc_.contextTable().install(qp.ctx, *entry);
    rmc_.fenceQueuePair(qp.ctx, qp.qpIndex);
}

void
RmcDriver::unregisterContext(Process &proc, sim::CtxId ctx)
{
    requireOpened(proc, ctx);
    rmc::CtEntry *entry = rmc_.contextTable().entryMutable(ctx);
    if (!entry)
        return;
    // Destroy-and-fence every live QP, then drop the CT entry: the node
    // stops serving remote requests for this context (peers see
    // bad-context error replies) and local software keeps only its
    // ring memory, which stays with the process.
    for (std::uint32_t q = 0;
         q < static_cast<std::uint32_t>(entry->qps.size()); ++q) {
        if (!entry->qps[q].valid)
            continue;
        entry->qps[q].valid = false;
        rmc_.contextTable().install(ctx, *entry);
        rmc_.fenceQueuePair(ctx, q);
        entry = rmc_.contextTable().entryMutable(ctx);
    }
    rmc_.contextTable().remove(ctx);
}

} // namespace sonuma::os
