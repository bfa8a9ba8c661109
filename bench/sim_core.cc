/**
 * @file
 * Simulation-core microbenchmark: raw event throughput, coroutine switch
 * throughput, and fabric hop throughput, with heap-allocation accounting.
 *
 * Emits BENCH_sim_core.json (schema 3) so the performance trajectory of
 * the engine is tracked PR over PR:
 *
 *   {
 *     "bench": "sim_core", "schema": 3,
 *     "events_per_sec": ..., "ns_per_event": ...,
 *     "legacy_events_per_sec": ..., "speedup_vs_legacy": ...,
 *     "allocs_per_event_steady_state": ...,
 *     "coro_switches_per_sec": ..., "frame_pool_reuse_ratio": ...,
 *     "fabric_hops_per_sec": ..., "allocs_per_hop_steady_state": ...,
 *     "peak_rss_bytes": ...
 *   }
 *
 * The A/B baseline is LegacyEventQueue below — a faithful copy of the
 * pre-refactor queue (std::function callbacks, unordered_set pending
 * tracking, std::priority_queue storage) — run on the identical
 * workload, so the speedup number is measured live rather than against
 * a stale checked-in figure.
 *
 * This translation unit overrides global operator new/delete to count
 * allocations; the steady-state sections of the report must stay at
 * zero allocations per event (asserted more strictly by
 * tests/sim_alloc_test.cc).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/common.hh"
#include "fabric/crossbar.hh"
#include "fabric/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/frame_pool.hh"
#include "sim/json.hh"
#include "sim/task.hh"

//
// ------------------- global allocation accounting ----------------------
//

static std::uint64_t g_allocCount = 0;

void *
operator new(std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace sonuma;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

//
// --------------------- the pre-refactor event queue --------------------
//

/** Faithful copy of the seed EventQueue (kept here as the A/B baseline). */
class LegacyEventQueue
{
  public:
    using EventId = std::uint64_t;

    sim::Tick now() const { return now_; }

    EventId
    schedule(sim::Tick when, std::function<void()> fn)
    {
        EventId id = nextSeq_++;
        heap_.push(Event{when, id, std::move(fn)});
        pending_.insert(id);
        return id;
    }

    EventId
    scheduleAfter(sim::Tick delay, std::function<void()> fn)
    {
        return schedule(now_ + delay, std::move(fn));
    }

    bool
    step()
    {
        while (!heap_.empty()) {
            Event ev = std::move(const_cast<Event &>(heap_.top()));
            heap_.pop();
            if (pending_.erase(ev.seq) == 0)
                continue;
            now_ = ev.when;
            ev.fn();
            return true;
        }
        return false;
    }

    void
    run()
    {
        while (step()) {
        }
    }

  private:
    struct Event
    {
        sim::Tick when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
    std::unordered_set<EventId> pending_;
    sim::Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

//
// --------------------------- event churn -------------------------------
//

/**
 * Self-rescheduling event chains with capture sizes drawn from the real
 * simulator: half the chains carry an 8-byte capture (a coroutine-handle
 * resume), half a 40-byte capture (a model callback with context), which
 * libstdc++'s std::function must heap-allocate but sim::Callback keeps
 * inline.
 */
template <typename Queue>
struct ChurnHarness
{
    Queue &q;
    std::uint64_t target; //!< chains stop re-arming once fired reaches it
    std::uint64_t fired = 0;

    struct BigState
    {
        std::uint64_t a = 1, b = 2, c = 3, d = 4;
    };

    void
    armSmall()
    {
        q.scheduleAfter(1, [this] {
            ++fired;
            if (fired < target)
                armSmall();
        });
    }

    void
    armBig(BigState st)
    {
        q.scheduleAfter(1, [this, st] {
            fired += st.a != 0 ? 1 : 0;
            if (fired < target)
                armBig(st);
        });
    }
};

template <typename Queue>
double
eventChurnEventsPerSec(std::uint64_t totalEvents, int chains)
{
    Queue q;
    ChurnHarness<Queue> churn{q, totalEvents};
    for (int i = 0; i < chains; ++i) {
        if (i % 2 == 0)
            churn.armSmall();
        else
            churn.armBig({});
    }
    const auto t0 = Clock::now();
    q.run();
    const double dt = secondsSince(t0);
    return static_cast<double>(churn.fired) / dt;
}

/** Allocations per event in a warmed-up run of the production queue. */
double
eventChurnAllocsPerEvent(std::uint64_t totalEvents, int chains)
{
    sim::EventQueue q;
    q.reserve(static_cast<std::size_t>(chains) * 2);
    // Warm-up: grows slot table, heap storage, and callback pools.
    ChurnHarness<sim::EventQueue> warm{q, static_cast<std::uint64_t>(chains) * 8};
    for (int i = 0; i < chains; ++i)
        i % 2 == 0 ? warm.armSmall() : warm.armBig({});
    q.run();

    ChurnHarness<sim::EventQueue> churn{q, totalEvents};
    for (int i = 0; i < chains; ++i)
        i % 2 == 0 ? churn.armSmall() : churn.armBig({});
    const std::uint64_t a0 = g_allocCount;
    q.run();
    return static_cast<double>(g_allocCount - a0) /
           static_cast<double>(churn.fired);
}

//
// ------------------------- coroutine churn -----------------------------
//

sim::FireAndForget
spinTask(sim::EventQueue &eq, int iters, std::uint64_t *switches)
{
    for (int i = 0; i < iters; ++i) {
        co_await sim::Delay(eq, 1);
        ++*switches;
    }
}

struct CoroResult
{
    double switchesPerSec;
    double reuseRatio;
    double allocsPerSpawn;
};

CoroResult
coroChurn(int tasks, int iters, int respawnRounds)
{
    sim::EventQueue eq;
    std::uint64_t switches = 0;

    // Warm-up round populates the frame pool and the queue's slot table.
    for (int i = 0; i < tasks; ++i)
        spinTask(eq, iters, &switches);
    eq.run();

    auto &pool = sim::FramePool::instance();
    pool.resetStats();
    switches = 0;
    const std::uint64_t a0 = g_allocCount;
    const auto t0 = Clock::now();
    // Respawn rounds exercise frame alloc/free cycles, not just resumes.
    for (int r = 0; r < respawnRounds; ++r) {
        for (int i = 0; i < tasks; ++i)
            spinTask(eq, iters, &switches);
        eq.run();
    }
    const double dt = secondsSince(t0);
    const std::uint64_t allocs = g_allocCount - a0;
    const auto &st = pool.stats();
    return CoroResult{
        static_cast<double>(switches) / dt,
        st.allocs ? static_cast<double>(st.reuses) /
                        static_cast<double>(st.allocs)
                  : 0.0,
        static_cast<double>(allocs) /
            (static_cast<double>(tasks) * respawnRounds),
    };
}

//
// --------------------------- fabric churn ------------------------------
//

struct FabricResult
{
    double hopsPerSec;
    double allocsPerHop;
};

FabricResult
fabricChurn(std::uint64_t messages)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    fab::CrossbarFabric xbar(eq, stats);
    fab::NetworkInterface ni0(eq, stats, "ni0", 0, xbar);
    fab::NetworkInterface ni1(eq, stats, "ni1", 1, xbar);

    std::uint64_t received = 0;
    ni1.onArrival(fab::Lane::kRequest, [&ni1, &received] {
        while (ni1.hasMessage(fab::Lane::kRequest)) {
            ni1.pop(fab::Lane::kRequest);
            ++received;
        }
    });

    std::uint64_t toSend = messages;
    fab::Message msg;
    msg.op = fab::Op::kReadReq;
    msg.srcNid = 0;
    msg.dstNid = 1;
    msg.payloadLen = 0;

    // Keep the inject queue fed from an event-driven producer.
    struct Producer
    {
        sim::EventQueue &eq;
        fab::NetworkInterface &ni;
        fab::Message &msg;
        std::uint64_t &toSend;

        void
        pump()
        {
            while (toSend > 0 && ni.trySend(msg))
                --toSend;
            if (toSend > 0)
                eq.scheduleAfter(100, [this] { pump(); });
        }
    } producer{eq, ni0, msg, toSend};

    // Warm-up: size every ring on the path.
    toSend = 1024;
    producer.pump();
    eq.run();
    received = 0;
    toSend = messages;

    const std::uint64_t a0 = g_allocCount;
    const auto t0 = Clock::now();
    producer.pump();
    eq.run();
    const double dt = secondsSince(t0);
    return FabricResult{
        static_cast<double>(received) / dt,
        static_cast<double>(g_allocCount - a0) /
            static_cast<double>(received),
    };
}

std::uint64_t
peakRssBytes()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Args args(argc, argv, {"events", "chains", "messages", "out"});
    const std::uint64_t events = args.getU64("events", 4'000'000);
    const int chains = static_cast<int>(args.getU64("chains", 64));
    const std::uint64_t messages = args.getU64("messages", 400'000);
    const std::string out = args.get("out", "BENCH_sim_core.json");

    std::printf("# sim_core: event/coroutine/fabric core throughput\n");

    // Best-of-3, interleaved, so scheduler/frequency noise on a busy
    // host cannot bias the A/B ratio toward either queue.
    double legacy = 0, current = 0;
    for (int rep = 0; rep < 3; ++rep) {
        legacy = std::max(
            legacy, eventChurnEventsPerSec<LegacyEventQueue>(events, chains));
        current = std::max(
            current, eventChurnEventsPerSec<sim::EventQueue>(events, chains));
    }
    std::printf("legacy queue:   %12.0f events/s  (%6.1f ns/event)\n",
                legacy, 1e9 / legacy);
    std::printf("inline queue:   %12.0f events/s  (%6.1f ns/event)\n",
                current, 1e9 / current);
    std::printf("speedup:        %12.2fx\n", current / legacy);

    const double allocsPerEvent =
        eventChurnAllocsPerEvent(events / 4, chains);
    std::printf("steady allocs:  %12.4f per event\n", allocsPerEvent);

    const CoroResult coro = coroChurn(256, 64, 32);
    std::printf("coroutines:     %12.0f switches/s  "
                "(pool reuse %.3f, %.4f allocs/spawn)\n",
                coro.switchesPerSec, coro.reuseRatio, coro.allocsPerSpawn);

    const FabricResult fabric = fabricChurn(messages);
    std::printf("fabric:         %12.0f hops/s  (%.4f allocs/hop)\n",
                fabric.hopsPerSec, fabric.allocsPerHop);

    const std::uint64_t rss = peakRssBytes();
    std::printf("peak rss:       %12.1f MB\n",
                static_cast<double>(rss) / (1024.0 * 1024.0));

    sim::JsonWriter w;
    w.beginArtifact("sim_core")
        .field("events_per_sec", current)
        .field("ns_per_event", 1e9 / current)
        .field("legacy_events_per_sec", legacy)
        .field("speedup_vs_legacy", current / legacy)
        .field("allocs_per_event_steady_state", allocsPerEvent)
        .field("coro_switches_per_sec", coro.switchesPerSec)
        .field("frame_pool_reuse_ratio", coro.reuseRatio)
        .field("allocs_per_coro_spawn", coro.allocsPerSpawn)
        .field("fabric_hops_per_sec", fabric.hopsPerSec)
        .field("allocs_per_hop_steady_state", fabric.allocsPerHop)
        .field("peak_rss_bytes", rss)
        .endObject();
    sim::writeFile(out, w.str());
    std::printf("# wrote %s\n", out.c_str());
    return 0;
}
