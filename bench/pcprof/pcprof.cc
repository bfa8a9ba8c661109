/**
 * @file
 * SIGPROF program-counter sampler, loaded with LD_PRELOAD.
 *
 *   PCPROF_OUT=/tmp/p LD_PRELOAD=build/libpcprof.so \
 *       build/bench_sim_core --events=200000
 *   python3 bench/pcprof/report.py /tmp/p
 *
 * While the program runs, an ITIMER_PROF timer interrupts it every
 * millisecond of process CPU time (or at the kernel's tick, if that is
 * coarser) and the handler stores the interrupted program counter into
 * a fixed array. At exit the samples go to PCPROF_OUT.pcs (one hex PC
 * a line) and a copy of /proc/self/maps to PCPROF_OUT.maps, so
 * report.py can map each PC back to an object file and resolve it
 * there. PCPROF_OUT defaults to "pcprof". Preload it into the profiled
 * program only: a child that also loads it writes the same files.
 *
 * Unlike gprof, nothing is instrumented: every function, inlined or
 * not, coroutine body included, is resolved from its own PC.
 */

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr std::size_t kMaxSamples = std::size_t(1) << 20;
constexpr long kPeriodUs = 1000;

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_taken{0};

std::uintptr_t
pcOf(void *context)
{
    const auto *uc = static_cast<const ucontext_t *>(context);
#if defined(__x86_64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcprof: no program-counter accessor for this architecture"
#endif
}

void
onProf(int, siginfo_t *, void *context)
{
    const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_pcs[i] = pcOf(context);
}

__attribute__((constructor)) void
startSampling()
{
    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);

    itimerval period = {};
    period.it_interval.tv_usec = kPeriodUs;
    period.it_value = period.it_interval;
    setitimer(ITIMER_PROF, &period, nullptr);
}

__attribute__((destructor)) void
writeSamples()
{
    const itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);

    const char *out = std::getenv("PCPROF_OUT");
    const std::string prefix = out ? out : "pcprof";
    const std::size_t taken = g_taken.load();
    const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;

    if (FILE *f = std::fopen((prefix + ".pcs").c_str(), "w")) {
        std::fprintf(f, "# pcprof period_us=%ld samples=%zu dropped=%zu\n",
                     kPeriodUs, kept, taken - kept);
        for (std::size_t i = 0; i < kept; ++i)
            std::fprintf(f, "%zx\n", static_cast<std::size_t>(g_pcs[i]));
        std::fclose(f);
    }
    FILE *in = std::fopen("/proc/self/maps", "r");
    FILE *f = std::fopen((prefix + ".maps").c_str(), "w");
    if (in && f) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
            std::fwrite(buf, 1, n, f);
    }
    if (in)
        std::fclose(in);
    if (f)
        std::fclose(f);
}

} // namespace
