/**
 * @file
 * Shared benchmark scaffolding: strict CLI-flag parsing and table
 * printing that mirrors the paper's rows/series. Cluster setup lives in
 * the library now — see api::ClusterSpec / api::TestBed — so benches
 * declare topology and segments instead of hand-wiring them.
 */

#ifndef SONUMA_BENCH_COMMON_HH
#define SONUMA_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "api/testbed.hh"
#include "sim/did_you_mean.hh"
#include "sim/simulation.hh"

namespace sonuma::bench {

/**
 * Minimal flag parser: --name=value / --name.
 *
 * Flags are validated against the bench's declared set: a typo'd sweep
 * parameter must fail loudly instead of silently falling back to its
 * default and poisoning the measurement.
 */
class Args
{
  public:
    /**
     * @param known every flag this bench accepts (without the "--").
     * Unknown flags print a did-you-mean error and exit(2).
     */
    Args(int argc, char **argv,
         std::initializer_list<const char *> known)
    {
        for (int i = 1; i < argc; ++i)
            args_.emplace_back(argv[i]);
        std::vector<std::string> knownVec(known.begin(), known.end());
        std::string error;
        if (!validate(args_, knownVec, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(2);
        }
    }

    /**
     * Check @p args against @p known flags. On failure fills @p error
     * with an "unknown flag / did you mean / valid flags" message.
     * Exposed for tests.
     */
    static bool
    validate(const std::vector<std::string> &args,
             const std::vector<std::string> &known, std::string *error)
    {
        for (const auto &a : args) {
            if (a.rfind("--", 0) != 0)
                continue;
            const auto eq = a.find('=');
            const std::string name =
                a.substr(2, eq == std::string::npos ? std::string::npos
                                                    : eq - 2);
            bool ok = false;
            for (const auto &k : known)
                ok = ok || k == name;
            if (ok)
                continue;
            if (error) {
                *error = "unknown flag --" + name;
                const std::string near = sim::closestMatch(name, known);
                if (!near.empty())
                    *error += "; did you mean --" + near + "?";
                *error += " valid flags:";
                for (const auto &k : known)
                    *error += " --" + k;
            }
            return false;
        }
        return true;
    }

    bool
    has(const std::string &name) const
    {
        for (const auto &a : args_) {
            if (a == "--" + name ||
                a.rfind("--" + name + "=", 0) == 0)
                return true;
        }
        return false;
    }

    std::string
    get(const std::string &name, const std::string &def) const
    {
        const std::string prefix = "--" + name + "=";
        for (const auto &a : args_) {
            if (a.rfind(prefix, 0) == 0)
                return a.substr(prefix.size());
        }
        return def;
    }

    /**
     * Unsigned value flags, @p def when absent. A value parseUnsigned
     * rejects prints an error naming the flag and exits(2).
     */
    std::uint64_t
    getU64(const std::string &name, std::uint64_t def) const
    {
        return getUnsigned(name, def);
    }

    std::uint32_t
    getU32(const std::string &name, std::uint32_t def) const
    {
        return getUnsigned(name, def);
    }

    /**
     * Parse a comma-separated uint32 list flag ("--nodes=64,512" ->
     * {64, 512}), falling back to parsing @p def when absent. Any
     * non-numeric token (including signs: "-1" must not wrap around)
     * prints a clear error naming the flag and exits(2).
     */
    std::vector<std::uint32_t>
    getList(const std::string &name, const std::string &def) const
    {
        const std::string csv = get(name, def);
        std::vector<std::uint32_t> out;
        std::size_t pos = 0;
        while (pos < csv.size()) {
            const std::size_t comma = csv.find(',', pos);
            const std::string tok =
                csv.substr(pos, comma == std::string::npos
                                    ? std::string::npos
                                    : comma - pos);
            if (!tok.empty()) {
                std::uint32_t v = 0;
                if (!parseUnsigned(tok, &v)) {
                    std::fprintf(stderr,
                                 "--%s: '%s' is not a uint32 (expected a "
                                 "comma-separated list like 64,512)\n",
                                 name.c_str(), tok.c_str());
                    std::exit(2);
                }
                out.push_back(v);
            }
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        return out;
    }

    /**
     * Parse a torus-dims flag ("--topo=8x8x8" -> {8, 8, 8}). Returns
     * the empty vector when the flag is absent; prints the parse error
     * (with a did-you-mean for malformed axes) and exits(2) otherwise.
     */
    std::vector<std::uint32_t>
    getDims(const std::string &name) const
    {
        const auto s = get(name, "");
        if (s.empty())
            return {};
        std::vector<std::uint32_t> dims;
        std::string error;
        if (!parseDims(s, &dims, &error)) {
            std::fprintf(stderr, "--%s: %s\n", name.c_str(),
                         error.c_str());
            std::exit(2);
        }
        return dims;
    }

    /**
     * Strict "AxBxC" dims parsing. Each axis must be a positive
     * integer; on failure fills @p error with the offending axis and,
     * when the input still contains digit groups (e.g. "8,8,8" or
     * "8x8o8"), a canonical did-you-mean spelling. Exposed for tests.
     */
    static bool
    parseDims(const std::string &s, std::vector<std::uint32_t> *out,
              std::string *error)
    {
        std::vector<std::uint32_t> dims;
        std::string bad;
        bool failed = s.empty();
        std::size_t pos = 0;
        while (!failed && pos <= s.size()) {
            const std::size_t x = s.find('x', pos);
            const std::string tok =
                s.substr(pos, x == std::string::npos ? std::string::npos
                                                     : x - pos);
            std::uint32_t v = 0;
            if (!parseUnsigned(tok, &v) || v == 0) {
                bad = tok;
                failed = true;
                break;
            }
            dims.push_back(v);
            if (x == std::string::npos)
                break;
            pos = x + 1;
        }
        if (!failed) {
            if (out)
                *out = std::move(dims);
            return true;
        }
        if (error) {
            *error = "malformed axis '" + bad + "' in '" + s +
                     "' (expected radices like 8x8 or 8x8x8)";
            const std::string canon = canonicalDims(s);
            if (!canon.empty() && canon != s)
                *error += "; did you mean " + canon + "?";
        }
        return false;
    }

    /**
     * Strict unsigned parse shared by every numeric flag: digits only
     * (no signs/whitespace stoull would accept), no overflow past T's
     * maximum. Leaves @p out alone on failure. Exposed for tests.
     */
    template <typename T>
    static bool
    parseUnsigned(const std::string &s, T *out)
    {
        if (s.empty())
            return false;
        T v = 0;
        for (const char c : s) {
            if (c < '0' || c > '9')
                return false;
            const T digit = c - '0';
            if (v > (std::numeric_limits<T>::max() - digit) / 10)
                return false;
            v = v * 10 + digit;
        }
        *out = v;
        return true;
    }

  private:
    std::vector<std::string> args_;

    template <typename T>
    T
    getUnsigned(const std::string &name, T def) const
    {
        const auto s = get(name, "");
        if (!s.empty() && !parseUnsigned(s, &def)) {
            std::fprintf(stderr, "--%s: '%s' is not a uint%zu\n",
                         name.c_str(), s.c_str(), sizeof(T) * 8);
            std::exit(2);
        }
        return def;
    }

    /**
     * Re-spell a near-miss dims string in canonical AxBxC form by
     * joining its digit groups with 'x' ("8,8,8" / "8x8o8" -> "8x8x8");
     * "" when the input has no digits at all.
     */
    static std::string
    canonicalDims(const std::string &s)
    {
        std::string canon;
        bool inDigits = false;
        for (const char c : s) {
            if (c >= '0' && c <= '9') {
                if (!inDigits && !canon.empty())
                    canon += 'x';
                inDigits = true;
                canon += c;
            } else {
                inDigits = false;
            }
        }
        return canon;
    }
};

/** Print the Table 1 configuration header once per bench. */
inline void
printConfigHeader(const char *bench, const rmc::RmcParams &rmc)
{
    std::printf("# %s\n", bench);
    std::printf("# platform: %s\n",
                rmc.emulation() ? "development platform (RMCemu)"
                                : "simulated hardware (Table 1)");
    std::printf(
        "# node: 2 GHz core, 32 KB 2-way L1 (3 cyc), 4 MB L2 (6 cyc), "
        "DDR3-1600 (60 ns, 12.8 GB/s)\n");
    std::printf(
        "# rmc: RGP/RRPP/RCP, %u-entry MAQ, %u-entry TLB; fabric: "
        "crossbar, 50 ns/hop\n",
        rmc.maqEntries, rmc.tlbEntries);
}

/** The paper's two-node microbenchmark deployment (§7.2/7.3). */
inline api::TestBed
twoNodeBed(const rmc::RmcParams &rmcParams,
           std::uint64_t segBytes = 64ull << 20, std::uint64_t seed = 1)
{
    return api::TestBed(api::ClusterSpec{}
                            .nodes(2)
                            .rmc(rmcParams)
                            .segmentPerNode(segBytes)
                            .seed(seed));
}

/** Measure local DRAM-load latency on a node (the paper's yardstick). */
inline double
measureLocalDramNs(std::uint64_t seed = 9)
{
    using api::operator""_MiB;
    api::TestBed bed(
        api::ClusterSpec{}.nodes(1).segmentPerNode(64_MiB).seed(seed));
    auto &core = bed.node(0).core(0);
    core.attachProcess(bed.process(0));
    const vm::VAddr buf = bed.segBase(0);
    double result = 0;
    bed.spawn([](sim::Simulation *sim, node::Core *core, vm::VAddr buf,
                 double *out) -> sim::Task {
        const int kAccesses = 256;
        const sim::Tick t0 = sim->now();
        for (int i = 0; i < kAccesses; ++i) {
            // Stride past the L2 so every load reaches DRAM.
            co_await core->load(buf + std::uint64_t(i) * 8192 * 17);
        }
        *out = sim::ticksToNs(sim->now() - t0) / kAccesses;
    }(&bed.sim(), &core, buf, &result));
    bed.run();
    return result;
}

} // namespace sonuma::bench

#endif // SONUMA_BENCH_COMMON_HH
