/**
 * @file
 * Shared helpers for the vtsim test suite.
 */

#ifndef VTSIM_TESTS_TEST_UTIL_HH
#define VTSIM_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "gpu/gpu.hh"
#include "isa/assembler.hh"
#include "isa/kernel_builder.hh"
#include "workloads/workload.hh"

namespace vtsim::test {

/**
 * A path in the gtest temp dir, named @p stem plus this process id and
 * the running test's name. ctest runs every TEST as its own process,
 * possibly in parallel, so a fixed name would let two tests overwrite
 * each other's file.
 */
inline std::string
uniqueTempPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info ? std::string(info->test_suite_name()) + "." +
                                  info->name()
                            : "none";
    std::replace(test.begin(), test.end(), '/', '_');
    return ::testing::TempDir() + stem + "-" + std::to_string(::getpid()) +
           "-" + test;
}

/** Launch suite workload @p name at scale 0 on a fresh Gpu built from
 *  @p cfg, expect its results to verify, and return its KernelStats. */
inline KernelStats
runOn(const GpuConfig &cfg, const std::string &name)
{
    auto wl = makeWorkload(name, 0);
    const Kernel k = wl->buildKernel();
    Gpu gpu(cfg);
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    return stats;
}

/** Number of KernelStats fields a pinned row holds. */
inline constexpr std::size_t kPinnedFields = 19;

/** Every integer field of KernelStats, in pinned-row column order. */
inline std::vector<std::uint64_t>
fieldsOf(const KernelStats &k)
{
    return {k.cycles,           k.warpInstructions,  k.threadInstructions,
            k.ctasCompleted,    k.l1Hits,            k.l1Misses,
            k.l2Hits,           k.l2Misses,          k.dramRowHits,
            k.dramRowMisses,    k.dramBytes,         k.swapOuts,
            k.swapIns,          k.stalls.issued,     k.stalls.memStall,
            k.stalls.shortStall, k.stalls.barrierStall,
            k.stalls.swapStall, k.stalls.idle};
}

inline const char *const kPinnedFieldNames[kPinnedFields] = {
    "cycles",       "warpInstructions", "threadInstructions",
    "ctasCompleted", "l1Hits",          "l1Misses",
    "l2Hits",       "l2Misses",         "dramRowHits",
    "dramRowMisses", "dramBytes",       "swapOuts",
    "swapIns",      "stalls.issued",    "stalls.memStall",
    "stalls.shortStall", "stalls.barrierStall", "stalls.swapStall",
    "stalls.idle"};

/** One row of a table of KernelStats pinned as constants. */
struct Pinned
{
    const char *label;
    std::uint64_t fields[kPinnedFields];
};

/** One pinned launch: a label and how to run it. */
struct PinnedCase
{
    std::string label;
    std::function<KernelStats()> run;
};

/**
 * Run @p cases and expect each to reproduce its row of @p pinned, label
 * and every field. With VTSIM_PRINT_PINNED_STATS set, print the rows in
 * the table's format instead, for regenerating a table after an
 * intended timing-model change.
 */
inline void
expectPinned(const std::vector<PinnedCase> &cases,
             std::span<const Pinned> pinned)
{
    if (std::getenv("VTSIM_PRINT_PINNED_STATS")) {
        for (const PinnedCase &c : cases) {
            std::cout << "    {\"" << c.label << "\", {";
            const auto f = fieldsOf(c.run());
            for (std::size_t i = 0; i < f.size(); ++i)
                std::cout << (i ? ", " : "") << f[i];
            std::cout << "}},\n";
        }
        return;
    }
    ASSERT_EQ(cases.size(), pinned.size());
    for (std::size_t c = 0; c < cases.size(); ++c) {
        ASSERT_EQ(cases[c].label, pinned[c].label);
        const auto got = fieldsOf(cases[c].run());
        for (std::size_t i = 0; i < kPinnedFields; ++i) {
            EXPECT_EQ(got[i], pinned[c].fields[i])
                << cases[c].label << " " << kPinnedFieldNames[i];
        }
    }
}

/** A small but multi-SM config for fast integration tests. */
inline GpuConfig
smallConfig()
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.numSms = 2;
    cfg.numMemPartitions = 2;
    cfg.maxCycles = 5'000'000;
    return cfg;
}

/** smallConfig with Virtual Thread enabled. */
inline GpuConfig
smallVtConfig()
{
    GpuConfig cfg = smallConfig();
    cfg.vtEnabled = true;
    return cfg;
}

/**
 * Kernel that writes a constant to out[gid] for gid < n.
 * Params: 0 = out base, 1 = n, 2 = value.
 */
inline Kernel
storeConstKernel()
{
    return assemble(R"(
.kernel store_const
    ldp r0, 0
    ldp r1, 1
    ldp r2, 2
    s2r r3, ctaid.x
    s2r r4, ntid.x
    s2r r5, tid.x
    imad r6, r3, r4, r5
    isetp.ge r7, r6, r1
    bra r7, done
    shl r8, r6, 2
    iadd r8, r8, r0
    stg [r8], r2
done:
    exit
)");
}

/**
 * Kernel computing out[gid] = in[gid] * 3 + 7 (integers).
 * Params: 0 = in, 1 = out, 2 = n.
 */
inline Kernel
mul3Add7Kernel()
{
    return assemble(R"(
.kernel mul3add7
    ldp r0, 0
    ldp r1, 1
    ldp r2, 2
    s2r r3, ctaid.x
    s2r r4, ntid.x
    s2r r5, tid.x
    imad r6, r3, r4, r5
    isetp.ge r7, r6, r2
    bra r7, done
    shl r8, r6, 2
    iadd r9, r8, r0
    ldg r10, [r9]
    imul r10, r10, 3
    iadd r10, r10, 7
    iadd r11, r8, r1
    stg [r11], r10
done:
    exit
)");
}

} // namespace vtsim::test

#endif // VTSIM_TESTS_TEST_UTIL_HH
