/**
 * @file
 * Tiny helpers shared by the thread-exercising test suites
 * (parallel/fusion/bootstrap). Test-only, like test_refs.h.
 */
#pragma once

#include <cstdlib>

#include "common/parallel.h"
#include "common/types.h"

namespace cross::testutil {

/**
 * Concurrency level for thread-exercising tests: CROSS_TEST_THREADS
 * (clamped to [1, 256]), defaulting to 4 -- the contract the TSan/ASan
 * CI shards rely on.
 */
inline u32
testThreads()
{
    if (const char *env = std::getenv("CROSS_TEST_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1 && v <= 256)
            return static_cast<u32>(v);
    }
    return 4;
}

/** Scoped thread-count override; restores 1 thread on exit. */
struct ThreadGuard
{
    explicit ThreadGuard(u32 n) { setGlobalThreadCount(n); }
    ~ThreadGuard() { setGlobalThreadCount(1); }
};

} // namespace cross::testutil
