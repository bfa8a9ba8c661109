/**
 * @file
 * Application core model.
 *
 * The paper's evaluation uses simple in-order-ish cores (Cortex-A15
 * class, Table 1); the results hinge on memory-system and RMC behaviour,
 * not core microarchitecture. Accordingly a Core charges: (i) timed
 * loads/stores through its private L1 (coherent with the RMC's L1 —
 * this is where queue-pair polling costs come from), and (ii) explicit
 * compute time. Application code runs as coroutines bound to a core;
 * concurrent tasks on one core serialize on its compute resource.
 */

#ifndef SONUMA_NODE_CORE_HH
#define SONUMA_NODE_CORE_HH

#include <coroutine>
#include <cstdint>
#include <string>

#include "mem/cache.hh"
#include "os/node_os.hh"
#include "sim/service.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"
#include "vm/address_space.hh"

namespace sonuma::node {

class Core
{
  public:
    Core(sim::Simulation &sim, sim::StatRegistry &stats,
         const std::string &name, mem::L1Cache &l1, double freq_ghz = 2.0);

    /** Bind the process whose address space load/store translate in. */
    void attachProcess(os::Process &proc) { proc_ = &proc; }

    os::Process &process() const { return *proc_; }
    mem::L1Cache &l1() { return l1_; }
    sim::Simulation &simulation() { return sim_; }
    const sim::Clock &clock() const { return clock_; }

    /** Spawn an application task "running on" this core. */
    void
    run(sim::Task t)
    {
        sim_.spawn(std::move(t));
    }

    /** Timed load of the line containing @p va. */
    auto
    load(vm::VAddr va)
    {
        return MemAwaiter{*this, va, false};
    }

    /** Timed store to the line containing @p va. */
    auto
    store(vm::VAddr va)
    {
        return MemAwaiter{*this, va, true};
    }

    /**
     * Charge @p cyc cycles of compute. Tasks sharing the core serialize
     * here, so co-located threads contend realistically.
     */
    auto
    compute(std::uint64_t cyc)
    {
        return exec_.use(clock_.cycles(cyc));
    }

    struct MemAwaiter
    {
        Core &core;
        vm::VAddr va;
        bool write;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            const mem::PAddr pa =
                core.proc_->addressSpace().translate(va);
            core.l1_.access(pa, write, [h] { h.resume(); });
        }

        void await_resume() const noexcept {}
    };

  private:
    sim::Simulation &sim_;
    mem::L1Cache &l1_;
    os::Process *proc_ = nullptr;
    sim::Clock clock_;
    sim::ServiceResource exec_;
};

} // namespace sonuma::node

#endif // SONUMA_NODE_CORE_HH
