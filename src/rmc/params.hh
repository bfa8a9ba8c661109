/**
 * @file
 * RMC configuration, with presets for the paper's two platforms.
 *
 * - simulatedHardware(): hardwired pipelines, per-stage cycle costs
 *   (paper Table 1: 3 independent pipelines, 32-entry MAQ, 32-entry TLB).
 * - emulationPlatform(): the Xen "development platform" substitute — RMC
 *   logic runs as software on two emulated kernel threads (one for
 *   RGP+RCP, one for RRPP, as in §7.1), with per-WQ-entry and per-line
 *   software processing costs that reproduce its measured behaviour
 *   (~1.5 us remote read RTT, ~1.8 Gbps bandwidth ceiling).
 */

#ifndef SONUMA_RMC_PARAMS_HH
#define SONUMA_RMC_PARAMS_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/types.hh"

namespace sonuma::rmc {

/** Which platform the RMC models (paper §7.1). */
enum class Platform
{
    kSimulatedHardware,
    kEmulation,
};

struct RmcParams
{
    Platform platform = Platform::kSimulatedHardware;

    //
    // Structure sizes
    //
    std::uint32_t maxTids = 64;        //!< ITT entries / transfer ids
    std::uint32_t tlbEntries = 32;     //!< MMU TLB (Table 1)
    std::uint32_t maqEntries = 32;     //!< Memory Access Queue (Table 1)
    std::uint32_t ctCacheEntries = 8;  //!< CT$ (recently used CT entries)
    std::uint32_t maxContexts = 16;
    std::uint32_t maxQpsPerContext = 16;
    std::uint32_t qpEntries = 64;      //!< WQ/CQ ring depth per queue pair

    //
    // Session-level queue-pair fan-out (paper Table 2: IOPS scale with
    // the number of QPs). Each RmcSession registers this many
    // independent WQ/CQ pairs and distributes posts across them; 1
    // reproduces the classic one-QP-per-thread model of §4.2.
    //
    std::uint32_t qpCount = 1;

    //
    // RGP arbitration: WQ entries one armed QP may consume before the
    // pipeline rotates to the next armed QP. Bounds how long one
    // streaming QP can hold the (single, shared) request pipeline when
    // several QPs have work — the multi-QP fairness knob.
    //
    std::uint32_t rgpQpBurst = 8;

    //
    // Hardwired-pipeline stage costs, in core cycles (the 'L' states of
    // Fig. 3b are combinational; memory states are charged by the MAQ).
    //
    double freqGhz = 2.0;
    std::uint32_t rgpStageCycles = 30;  //!< per WQ entry (parse/init)
    std::uint32_t rgpPerLineCycles = 2; //!< per unrolled line (pipelined)
    std::uint32_t rrppStageCycles = 60; //!< per serviced request
    std::uint32_t rcpStageCycles = 40;  //!< per processed reply

    //
    // Source-side transfer timeout: a transfer whose replies stop
    // arriving (a dead node, a dead link or a lossy window swallowed
    // the packets) is retransmitted after this long. It is the only
    // fault detector: no fault is ever notified to the RMC.
    //
    sim::Tick transferTimeout = sim::usToTicks(200);

    //
    // Reliable delivery (timeout-driven retransmission). A transfer
    // whose replies stop arriving is retransmitted by the sweep instead
    // of aborted: up to maxAttempts total attempts, each retransmit
    // delayed by rnrBackoff doubled per attempt (capped at
    // rnrBackoffCapDoublings doublings). Only after the attempt budget
    // is exhausted does the transfer abort with a fabric-error
    // completion (counted in `unrecoverable`). maxAttempts == 1 aborts
    // on the first timeout.
    //
    std::uint32_t maxAttempts = 4;
    sim::Tick rnrBackoff = sim::usToTicks(5);
    std::uint32_t rnrBackoffCapDoublings = 4;

    //
    // Destination-side replay-dedup window: the RRPP remembers the last
    // dedupWindow mutating requests (writes/atomics) by (srcNid, tid,
    // offset) and answers a replayed one with its cached reply instead
    // of executing it again — the exactly-once half of the protocol
    // (reads are idempotent and are never deduplicated). 0 disables the
    // window. Purely functional: lookups charge no cycles, so the
    // no-loss path is timing-identical with the window on or off. Host
    // memory: 24 B per entry plus bit_ceil(2 * dedupWindow) 4-byte
    // table slots per node (32 KiB at 1024).
    //
    std::uint32_t dedupWindow = 1024;

    //
    // Emulation-platform software costs (only used when platform ==
    // kEmulation). These model RMCemu's per-item processing on its
    // dedicated virtual CPUs.
    //
    sim::Tick emuPerWqEntry = sim::nsToTicks(230);  //!< parse + schedule
    sim::Tick emuPerLine = sim::nsToTicks(150);     //!< unroll one line
    sim::Tick emuPerReply = sim::nsToTicks(130);    //!< absorb one reply
    sim::Tick emuRrppPerLine = sim::nsToTicks(280); //!< serve one request
    sim::Tick emuPollDelay = sim::nsToTicks(175);   //!< queue-poll lag

    /** Cycle duration shortcut. */
    sim::Tick
    cycles(std::uint32_t n) const
    {
        return sim::Clock(freqGhz).cycles(n);
    }

    bool emulation() const { return platform == Platform::kEmulation; }

    static RmcParams
    simulatedHardware()
    {
        return RmcParams{};
    }

    static RmcParams
    emulationPlatform()
    {
        RmcParams p;
        p.platform = Platform::kEmulation;
        // Software per-line costs make large transfers thousands of
        // times slower than hardware; scale the abort timeout with them.
        p.transferTimeout = sim::usToTicks(50000);
        return p;
    }
};

/**
 * Eager configuration check (the ClusterParams convention): throws
 * std::invalid_argument with a precise message instead of misbehaving
 * deep inside a ring cursor or the RGP. Called by node::validate for
 * every cluster build; also usable directly.
 */
inline void
validate(const RmcParams &params)
{
    if (params.qpEntries == 0)
        throw std::invalid_argument(
            "RmcParams: qpEntries must be >= 1 (got 0); each queue pair "
            "needs at least one WQ/CQ ring slot");
    if (params.qpEntries > 65536)
        throw std::invalid_argument(
            "RmcParams: qpEntries " + std::to_string(params.qpEntries) +
            " exceeds 65536, the largest ring a CQ entry's 16-bit "
            "wqIndex can address");
    if (params.qpCount == 0)
        throw std::invalid_argument(
            "RmcParams: qpCount must be >= 1 (got 0); a session cannot "
            "operate without a queue pair");
    if (params.qpCount > params.maxQpsPerContext)
        throw std::invalid_argument(
            "RmcParams: qpCount " + std::to_string(params.qpCount) +
            " exceeds maxQpsPerContext " +
            std::to_string(params.maxQpsPerContext) +
            "; raise maxQpsPerContext or lower the per-session fan-out");
    if (params.maxQpsPerContext == 0)
        throw std::invalid_argument(
            "RmcParams: maxQpsPerContext must be >= 1 (got 0)");
    if (params.rgpQpBurst == 0)
        throw std::invalid_argument(
            "RmcParams: rgpQpBurst must be >= 1 (got 0); the RGP must "
            "consume at least one WQ entry per arbitration turn");
    if (params.maxTids == 0)
        throw std::invalid_argument(
            "RmcParams: maxTids must be >= 1 (got 0); the RMC needs at "
            "least one in-flight transfer id");
    if (params.maxTids > 65536)
        throw std::invalid_argument(
            "RmcParams: maxTids " + std::to_string(params.maxTids) +
            " exceeds 65536, the largest index a packed 16-bit tid "
            "field can carry");
    if (params.maxAttempts == 0)
        throw std::invalid_argument(
            "RmcParams: maxAttempts must be >= 1 (got 0); every "
            "transfer needs at least its first attempt");
    if (params.maxAttempts > 255)
        throw std::invalid_argument(
            "RmcParams: maxAttempts " +
            std::to_string(params.maxAttempts) +
            " exceeds 255, the largest value the packet's 8-bit "
            "attempt tag can carry");
    if (params.dedupWindow > (1u << 20))
        throw std::invalid_argument(
            "RmcParams: dedupWindow " +
            std::to_string(params.dedupWindow) +
            " exceeds 2^20 entries; the replay window is a bounded "
            "cache, not a log");
}


} // namespace sonuma::rmc

#endif // SONUMA_RMC_PARAMS_HH
