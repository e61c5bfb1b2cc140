/**
 * @file
 * Shared helpers for the vtsim test suite.
 */

#ifndef VTSIM_TESTS_TEST_UTIL_HH
#define VTSIM_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

#include "config/gpu_config.hh"
#include "gpu/gpu.hh"
#include "isa/assembler.hh"
#include "isa/kernel_builder.hh"

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
