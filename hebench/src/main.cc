/**
 * @file
 * hebench: the repository benchmark.
 *
 *     hebench --workload <serve|serve-churn> --seed <n>
 *             --seconds <s> --trace <0|1>
 *
 * Prints a human-readable log and, as its last stdout line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Any
 * result that differs from its reference exits 1 before a number is
 * printed. See README.md for the workloads and the metric-to-layer map.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <malloc.h>

#include "harness.h"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hebench: %s\nusage: hebench --workload "
                 "<serve|serve-churn> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const char *s, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0')
        usage(flag);
    return v;
}

hebench::Options
parseArgs(int argc, char **argv)
{
    hebench::Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing flag value");
        const char *val = argv[++i];
        if (flag == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = parseUint(val, "bad --seed");
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseUint(val, "bad --seconds"));
            if (o.seconds < 1 || o.seconds > 120)
                usage("--seconds must be within 1..120");
        } else if (flag == "--trace") {
            const auto t = parseUint(val, "bad --trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
        } else {
            usage("unknown flag");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

void
printJson(const hebench::RunResult &r)
{
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const hebench::Options opts = parseArgs(argc, argv);
    // Keep freed memory in the process for reuse, as a long-running
    // server's allocator does. With glibc's defaults every multi-MiB
    // temporary of a Set C operation is fresh mmap'd pages, whose
    // faults cost about 30% of a Mult & Relin and grow with host load
    // faster than the reference kernel does (README.md).
    const bool kept = mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
                      mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1;
    std::printf("allocator: freed memory kept for reuse: %s\n",
                kept ? "yes" : "no");
    hebench::RunResult r;
    if (opts.workload == "serve")
        r = hebench::runServe(opts);
    else if (opts.workload == "serve-churn")
        r = hebench::runServeChurn(opts);
    else
        usage("unknown workload");

    hebench::require(r.attempted >= 1, "no operation was attempted");
    for (const auto &m : r.metrics) {
        hebench::require(std::isfinite(m.value),
                         "metric " + m.name + " is not finite");
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::fflush(stdout);
    printJson(r);
    return 0;
}
