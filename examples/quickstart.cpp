/**
 * @file
 * Quickstart: the smallest complete soNUMA program, on the v2 API.
 * Two nodes, one context, and the paper's one-sided primitives — each
 * a single co_await yielding an OpResult (status + latency).
 *
 * It checks its own results and exits non-zero unless every op behaves
 * as commented, so it doubles as the example_quickstart ctest.
 *
 *   $ ./example_quickstart
 */

#include <cstdio>
#include <cstring>

#include "api/testbed.hh"

using namespace sonuma;
using namespace sonuma::api;

/** The four expectations below; all must pass for exit status 0. */
static constexpr int kChecks = 4;

static void check(bool ok, const char *what, int *passed)
{
    if (ok)
        ++*passed;
    else
        std::printf("FAILED: %s\n", what);
}

static sim::Task clientMain(TestBed &bed, int *passed)
{
    auto &s = bed.session(1);              // node 1, core 0
    auto &as = s.process().addressSpace();
    const vm::VAddr buf = s.allocBuffer(4096);
    // 1. Remote read: 64 B from node 0's segment into our buffer.
    OpResult r = co_await s.read(/*nid=*/0, /*offset=*/0, buf, 64);
    char text[65] = {};
    as.read(buf, text, 64);
    std::printf("remote read : %-4s in %6.0f ns  -> \"%s\"\n",
                r.ok() ? "ok" : "ERR", sim::ticksToNs(r.latency), text);
    check(r.ok() && std::strcmp(text, "hello from node 0's memory") == 0,
          "read returns node 0's bytes", passed);

    // 2. Remote write: place a greeting in node 0's memory.
    as.write(buf, "greetings from node 1", 22);
    r = co_await s.write(0, 4096, buf, 64);
    char landed[64];
    bed.process(0).addressSpace().read(bed.segBase(0) + 4096, landed, 64);
    std::printf("remote write: %-4s in %6.0f ns  -> server sees \"%s\"\n",
                r.ok() ? "ok" : "ERR", sim::ticksToNs(r.latency), landed);
    check(r.ok() && std::strcmp(landed, "greetings from node 1") == 0,
          "node 0 sees the write", passed);

    // 3. Remote atomic: fetch-and-add; the old value rides the result.
    r = co_await s.fetchAdd(0, /*offset=*/8192, /*addend=*/5);
    std::printf("fetch-add   : %-4s in %6.0f ns  -> old=%llu\n",
                r.ok() ? "ok" : "ERR", sim::ticksToNs(r.latency),
                static_cast<unsigned long long>(r.oldValue));
    check(r.ok() && r.oldValue == 100, "fetch-add returns old value 100",
          passed);

    // 4. Errors surface in the OpResult, not as corruption.
    r = co_await s.read(0, /*offset=*/1 << 30, buf, 64);
    std::printf("bad read    : %s (bounds violations surface via CQ)\n",
                r.status == rmc::CqStatus::kBoundsError ? "rejected"
                                                        : "UNEXPECTED");
    check(r.status == rmc::CqStatus::kBoundsError,
          "out-of-range read yields kBoundsError", passed);
}

int main()
{
    TestBed bed(ClusterSpec{}.nodes(2).context(1).segmentPerNode(1_MiB));
    bed.process(0).addressSpace().write(bed.segBase(0),
                                        "hello from node 0's memory", 27);
    bed.process(0).addressSpace().writeT<std::uint64_t>(
        bed.segBase(0) + 8192, 100);
    // Counting passes, not failures, also fails a client that never
    // reaches its last check.
    int passed = 0;
    bed.spawn(clientMain(bed, &passed));
    bed.run();
    std::printf("\nsimulated time: %.2f us\n",
                sim::ticksToUs(bed.sim().now()));
    return passed == kChecks ? 0 : 1;
}
