/**
 * @file
 * Properties of the issue path's ready bits.
 *
 * Two guarantees back the bitmask issue path:
 *   (a) the ready bits, the age order of the Active CTAs and the stall
 *       counters always agree with a full rescan of every warp, and no
 *       live warp has readyAt > now when the VT manager polls — checked
 *       every tick by the in-simulator oracle (readySetOracle), which
 *       panics on the first divergence; and
 *   (b) end-of-run KernelStats are pinned to values generated before
 *       the ready bits existed, on the baseline, Virtual Thread and
 *       CTA-throttled machines. Two tables hold what the full warp scan
 *       (the old incrementalReadySets=false path) produced on the
 *       matrices the on/off tests compared: the default config
 *       (kFullScanDefault) and seeded random configs
 *       (kFullScanRandom). kPinned covers a wider seeded matrix of
 *       scheduler policies, scheduler counts and swap triggers, a
 *       vt-fill co-run, and a launch whose CTA puts more than 64 warps
 *       on one scheduler (two words of ready bits); its values came
 *       from the sorted ready lists, which the on/off tests had proven
 *       identical to the full scan.
 *
 * Running the suite with VTSIM_PRINT_PINNED_STATS=1 prints each table in
 * its own format instead of comparing, for regenerating them after an
 * intended timing-model change.
 */

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "isa/assembler.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

using test::expectPinned;
using test::Pinned;
using test::PinnedCase;
using test::runOn;
using test::smallConfig;

/** Baseline, VT, and throttled variants of one base config. */
std::vector<std::pair<std::string, GpuConfig>>
machineVariants(const GpuConfig &base)
{
    GpuConfig vt = base;
    vt.vtEnabled = true;
    GpuConfig throttled = base;
    throttled.throttleEnabled = true;
    return {{"baseline", base}, {"vt", vt}, {"throttle", throttled}};
}

/** Draw a config variation from @p rng (scheduler shape + VT knobs). */
GpuConfig
randomConfig(std::mt19937 &rng)
{
    GpuConfig cfg = smallConfig();
    const SchedulerPolicy policies[] = {SchedulerPolicy::LooseRoundRobin,
                                        SchedulerPolicy::GreedyThenOldest,
                                        SchedulerPolicy::TwoLevel};
    cfg.schedulerPolicy = policies[rng() % 3];
    cfg.numSchedulers = 1 + rng() % 4;
    cfg.vtSwapTrigger = rng() % 2 == 0 ? VtSwapTrigger::AllWarpsStalled
                                       : VtSwapTrigger::AnyWarpStalled;
    cfg.vtStallThreshold = 2 + rng() % 6;
    return cfg;
}

/**
 * Property (a): the oracle cross-checks bits and counters against a
 * full scan on every non-fast-forwarded tick and panics on divergence,
 * so a clean run IS the assertion. Seeded-random configs x the three
 * machines x a mix of barrier-heavy, divergent, and memory-bound
 * workloads.
 */
TEST(ReadySet, OracleCleanAcrossRandomConfigs)
{
    std::mt19937 rng(20160618); // ISCA'16 vintage; fixed for repro.
    const char *workloads[] = {"vecadd", "reduce", "bfs", "stencil",
                               "histogram", "transpose"};
    for (int draw = 0; draw < 4; ++draw) {
        GpuConfig cfg = randomConfig(rng);
        cfg.readySetOracle = true;
        const std::string wl = workloads[rng() % 6];
        for (auto &[tag, variant] : machineVariants(cfg))
            runOn(variant, wl);
    }
}

/**
 * A CTA of 80 warps (2560 threads) on one scheduler: each warp loads
 * one word, parks it in shared memory, waits at the barrier, and
 * writes its mirror-image neighbour's value * 3 + 7. Ten registers per
 * thread keep the CTA inside the register file.
 */
Kernel
wideCtaKernel()
{
    return assemble(R"(
.kernel wide_reverse
.shared 10240
    ldp r0, 0
    s2r r1, ctaid.x
    s2r r2, ntid.x
    s2r r3, tid.x
    imad r4, r1, r2, r3
    shl r4, r4, 2
    iadd r5, r4, r0
    ldg r6, [r5]
    shl r7, r3, 2
    sts [r7], r6
    bar
    isub r8, r2, 1
    isub r8, r8, r3
    shl r8, r8, 2
    lds r9, [r8]
    imul r9, r9, 3
    iadd r9, r9, 7
    ldp r0, 1
    iadd r4, r4, r0
    stg [r4], r9
    exit
)");
}

constexpr std::uint32_t kWideThreads = 2560;
constexpr std::uint32_t kWideCtas = 4;

/** One scheduler with the scheduling limit doubled (the bigger-
 *  scheduler machine; VT excludes it): 96 warp slots, so one 80-warp CTA
 *  fits and all its warps share scheduler 0. */
GpuConfig
wideConfig(SchedulerPolicy policy)
{
    GpuConfig cfg = smallConfig();
    cfg.numSchedulers = 1;
    cfg.schedLimitMultiplier = 2;
    cfg.schedulerPolicy = policy;
    return cfg;
}

KernelStats
runWide(const GpuConfig &cfg)
{
    const Kernel k = wideCtaKernel();
    Gpu gpu(cfg);
    const std::uint32_t n = kWideThreads * kWideCtas;
    const Addr in = gpu.memory().alloc(n * 4);
    const Addr out = gpu.memory().alloc(n * 4);
    for (std::uint32_t i = 0; i < n; ++i)
        gpu.memory().write32(in + 4 * i, i);
    LaunchParams lp;
    lp.cta = Dim3(kWideThreads);
    lp.grid = Dim3(kWideCtas);
    lp.params = {std::uint32_t(in), std::uint32_t(out)};
    const KernelStats stats = gpu.launch(k, lp);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t cta = i / kWideThreads;
        const std::uint32_t tid = i % kWideThreads;
        const std::uint32_t src = cta * kWideThreads + kWideThreads - 1 - tid;
        EXPECT_EQ(gpu.memory().read32(out + 4 * i), src * 3 + 7) << i;
    }
    return stats;
}

/** vt-fill co-run of suite workloads. */
KernelStats
runVtFill(const GpuConfig &cfg, const std::vector<std::string> &names)
{
    Gpu gpu(cfg);
    std::vector<std::unique_ptr<Workload>> wls;
    std::vector<Kernel> kernels;
    for (const std::string &name : names) {
        wls.push_back(makeWorkload(name, 0));
        kernels.push_back(wls.back()->buildKernel());
    }
    std::vector<GridLaunch> launches;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        GridLaunch gl;
        gl.kernel = &kernels[i];
        gl.params = wls[i]->prepare(gpu.memory());
        launches.push_back(std::move(gl));
    }
    const KernelStats stats =
        gpu.launchConcurrent(launches, SharePolicy::VtFill);
    for (std::size_t i = 0; i < wls.size(); ++i)
        EXPECT_TRUE(wls[i]->verify(gpu.memory())) << names[i];
    return stats;
}

/** A launch of @p wl on @p cfg, labelled @p label. */
PinnedCase
launchCase(const std::string &label, const GpuConfig &cfg,
           const std::string &wl)
{
    return {label, [cfg, wl] { return runOn(cfg, wl); }};
}

/**
 * The pinned launches. The matrix walks all twelve (policy, scheduler
 * count) pairs, alternating the swap trigger so each policy and each
 * count meets both; the stall threshold and the workload are drawn from
 * a seeded RNG. Every config runs on the three machines, on one SM with
 * two CTA slots so that the scheduling limit binds (VT then holds more
 * CTAs than it can activate and swaps them), and with short throttle
 * epochs so that the throttler acts within these short launches.
 */
std::vector<PinnedCase>
pinnedCases()
{
    const SchedulerPolicy policies[] = {SchedulerPolicy::LooseRoundRobin,
                                        SchedulerPolicy::GreedyThenOldest,
                                        SchedulerPolicy::TwoLevel};
    const char *workloads[] = {"vecadd", "reduce", "bfs", "stencil",
                               "histogram", "transpose", "matmul"};
    std::mt19937 rng(0x5eed);
    std::vector<PinnedCase> cases;
    for (std::uint32_t i = 0; i < 12; ++i) {
        GpuConfig cfg = smallConfig();
        cfg.numSms = 1;
        cfg.maxCtasPerSm = 2;
        cfg.throttleEpochCycles = 256;
        cfg.schedulerPolicy = policies[i % 3];
        cfg.numSchedulers = 1 + i / 3;
        cfg.vtSwapTrigger = i % 2 == 0 ? VtSwapTrigger::AllWarpsStalled
                                       : VtSwapTrigger::AnyWarpStalled;
        cfg.vtStallThreshold = 2 + rng() % 6;
        const std::string wl = workloads[rng() % 7];
        const std::string tag =
            toString(cfg.schedulerPolicy) + "-s" +
            std::to_string(cfg.numSchedulers) +
            (i % 2 == 0 ? "-all-t" : "-any-t") +
            std::to_string(cfg.vtStallThreshold);
        for (const auto &[machine, variant] : machineVariants(cfg))
            cases.push_back(
                launchCase(tag + "/" + machine + "/" + wl, variant, wl));
    }
    cases.push_back({"vt-fill/bfs+reduce", [] {
                         GpuConfig cfg = test::smallVtConfig();
                         cfg.numSms = 1;
                         cfg.maxCtasPerSm = 1;
                         return runVtFill(cfg, {"bfs", "reduce"});
                     }});
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::LooseRoundRobin,
          SchedulerPolicy::GreedyThenOldest, SchedulerPolicy::TwoLevel}) {
        cases.push_back({"wide80/" + toString(policy),
                         [policy] { return runWide(wideConfig(policy)); }});
    }
    return cases;
}

/** The default config on the three machines, four workloads. */
std::vector<PinnedCase>
defaultCases()
{
    std::vector<PinnedCase> cases;
    for (const std::string wl : {"vecadd", "reduce", "bfs", "matmul"})
        for (const auto &[machine, variant] : machineVariants(smallConfig()))
            cases.push_back(launchCase(machine + "/" + wl, variant, wl));
    return cases;
}

/** Four seeded random configs on the three machines. */
std::vector<PinnedCase>
randomCases()
{
    std::mt19937 rng(0x5eed);
    const char *workloads[] = {"vecadd", "bfs", "stencil", "histogram"};
    std::vector<PinnedCase> cases;
    for (int draw = 0; draw < 4; ++draw) {
        const GpuConfig base = randomConfig(rng);
        const std::string wl = workloads[rng() % 4];
        for (const auto &[machine, variant] : machineVariants(base)) {
            cases.push_back(launchCase("draw" + std::to_string(draw) + "/" +
                                           machine + "/" + wl,
                                       variant, wl));
        }
    }
    return cases;
}

// clang-format off
const Pinned kFullScanDefault[] = {
    {"baseline/vecadd", {704, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 2330, 12, 0, 0, 170}},
    {"vt/vecadd", {704, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 2330, 12, 0, 0, 170}},
    {"throttle/vecadd", {704, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 2330, 12, 0, 0, 170}},
    {"baseline/reduce", {2749, 1660, 49652, 4, 0, 64, 0, 65, 49, 16, 8320, 0, 0, 1660, 7764, 520, 242, 0, 810}},
    {"vt/reduce", {2749, 1660, 49652, 4, 0, 64, 0, 65, 49, 16, 8320, 0, 0, 1660, 7764, 520, 242, 0, 810}},
    {"throttle/reduce", {2749, 1660, 49652, 4, 0, 64, 0, 65, 49, 16, 8320, 0, 0, 1660, 7764, 520, 242, 0, 810}},
    {"baseline/bfs", {1155, 640, 20480, 8, 566, 32, 16, 16, 0, 16, 2048, 0, 0, 640, 2930, 796, 0, 0, 254}},
    {"vt/bfs", {1155, 640, 20480, 8, 566, 32, 16, 16, 0, 16, 2048, 0, 0, 640, 2930, 796, 0, 0, 254}},
    {"throttle/bfs", {1155, 640, 20480, 8, 566, 32, 16, 16, 0, 16, 2048, 0, 0, 640, 2930, 796, 0, 0, 254}},
    {"baseline/matmul", {4552, 12192, 390144, 4, 96, 128, 0, 64, 48, 16, 8192, 0, 0, 12192, 4194, 1610, 18, 0, 194}},
    {"vt/matmul", {4552, 12192, 390144, 4, 96, 128, 0, 64, 48, 16, 8192, 0, 0, 12192, 4194, 1610, 18, 0, 194}},
    {"throttle/matmul", {4552, 12192, 390144, 4, 96, 128, 0, 64, 48, 16, 8192, 0, 0, 12192, 4194, 1610, 18, 0, 194}},
};

const Pinned kFullScanRandom[] = {
    {"draw0/baseline/stencil", {721, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 3087, 155, 0, 0, 284}},
    {"draw0/vt/stencil", {721, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 3087, 155, 0, 0, 284}},
    {"draw0/throttle/stencil", {721, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 3087, 155, 0, 0, 284}},
    {"draw1/baseline/stencil", {721, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 3087, 155, 0, 0, 284}},
    {"draw1/vt/stencil", {721, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 3087, 155, 0, 0, 284}},
    {"draw1/throttle/stencil", {721, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 3087, 155, 0, 0, 284}},
    {"draw2/baseline/stencil", {743, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 4406, 288, 0, 0, 450}},
    {"draw2/vt/stencil", {743, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 4406, 288, 0, 0, 450}},
    {"draw2/throttle/stencil", {743, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 4406, 288, 0, 0, 450}},
    {"draw3/baseline/vecadd", {750, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 1106, 6, 0, 0, 84}},
    {"draw3/vt/vecadd", {750, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 1106, 6, 0, 0, 84}},
    {"draw3/throttle/vecadd", {750, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 1106, 6, 0, 0, 84}},
};

const Pinned kPinned[] = {
    {"lrr-s1-all-t7/baseline/matmul", {13940, 12192, 390144, 4, 128, 64, 0, 64, 48, 16, 8192, 0, 0, 12192, 1624, 83, 0, 0, 41}},
    {"lrr-s1-all-t7/vt/matmul", {13622, 12192, 390144, 4, 128, 64, 0, 64, 48, 16, 8192, 4, 5, 12192, 719, 624, 0, 46, 41}},
    {"lrr-s1-all-t7/throttle/matmul", {13940, 12192, 390144, 4, 128, 64, 0, 64, 48, 16, 8192, 0, 0, 12192, 1624, 83, 0, 0, 41}},
    {"gto-s1-any-t7/baseline/stencil", {2542, 800, 25578, 8, 9, 32, 0, 32, 16, 16, 4096, 0, 0, 800, 1695, 7, 0, 0, 40}},
    {"gto-s1-any-t7/vt/stencil", {1412, 800, 25578, 8, 39, 32, 0, 32, 16, 16, 4096, 14, 20, 800, 529, 12, 0, 30, 41}},
    {"gto-s1-any-t7/throttle/stencil", {4063, 800, 25578, 8, 18, 32, 0, 32, 16, 16, 4096, 0, 0, 800, 3174, 49, 0, 0, 40}},
    {"two-level-s1-all-t6/baseline/reduce", {5607, 1660, 49652, 4, 0, 64, 2, 65, 49, 16, 8320, 0, 0, 1660, 3773, 174, 0, 0, 0}},
    {"two-level-s1-all-t6/vt/reduce", {3706, 1660, 49652, 4, 0, 64, 3, 65, 49, 16, 8320, 19, 21, 1660, 1726, 0, 0, 320, 0}},
    {"two-level-s1-all-t6/throttle/reduce", {7751, 1660, 49652, 4, 0, 64, 2, 65, 49, 16, 8320, 0, 0, 1660, 5573, 518, 0, 0, 0}},
    {"lrr-s2-any-t6/baseline/matmul", {8891, 12192, 390144, 4, 128, 64, 0, 64, 48, 16, 8192, 0, 0, 12192, 3422, 2014, 56, 0, 98}},
    {"lrr-s2-any-t6/vt/matmul", {8401, 12192, 390144, 4, 138, 64, 0, 64, 48, 16, 8192, 5, 6, 12192, 1967, 1553, 62, 934, 94}},
    {"lrr-s2-any-t6/throttle/matmul", {8891, 12192, 390144, 4, 128, 64, 0, 64, 48, 16, 8192, 0, 0, 12192, 3422, 2014, 56, 0, 98}},
    {"gto-s2-all-t2/baseline/bfs", {2214, 640, 20480, 8, 647, 16, 0, 16, 0, 16, 2048, 0, 0, 640, 2229, 1465, 0, 0, 94}},
    {"gto-s2-all-t2/vt/bfs", {1573, 640, 20480, 8, 623, 16, 0, 16, 0, 16, 2048, 13, 19, 640, 806, 325, 0, 1282, 93}},
    {"gto-s2-all-t2/throttle/bfs", {2427, 640, 20480, 8, 647, 16, 0, 16, 0, 16, 2048, 0, 0, 640, 2229, 1875, 0, 0, 110}},
    {"two-level-s2-any-t7/baseline/reduce", {5319, 1660, 49652, 4, 0, 64, 2, 65, 49, 16, 8320, 0, 0, 1660, 7512, 586, 248, 0, 632}},
    {"two-level-s2-any-t7/vt/reduce", {3358, 1660, 49652, 4, 0, 64, 2, 65, 49, 16, 8320, 21, 23, 1660, 3767, 114, 129, 819, 227}},
    {"two-level-s2-any-t7/throttle/reduce", {7401, 1660, 49652, 4, 0, 64, 2, 65, 49, 16, 8320, 0, 0, 1660, 11056, 973, 481, 0, 632}},
    {"lrr-s3-all-t2/baseline/histogram", {2455, 472, 15104, 2, 0, 32, 190, 40, 24, 16, 5120, 0, 0, 472, 6694, 159, 0, 0, 40}},
    {"lrr-s3-all-t2/vt/histogram", {2455, 472, 15104, 2, 0, 32, 190, 40, 24, 16, 5120, 0, 0, 472, 6694, 159, 0, 0, 40}},
    {"lrr-s3-all-t2/throttle/histogram", {2455, 472, 15104, 2, 0, 32, 190, 40, 24, 16, 5120, 0, 0, 472, 6694, 159, 0, 0, 40}},
    {"gto-s3-any-t6/baseline/transpose", {1395, 928, 29696, 4, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 928, 2656, 343, 64, 0, 194}},
    {"gto-s3-any-t6/vt/transpose", {1205, 928, 29696, 4, 8, 32, 0, 32, 16, 16, 4096, 6, 8, 928, 1964, 108, 4, 439, 172}},
    {"gto-s3-any-t6/throttle/transpose", {1549, 928, 29696, 4, 16, 32, 0, 32, 16, 16, 4096, 0, 0, 928, 2740, 597, 149, 0, 233}},
    {"two-level-s3-all-t2/baseline/vecadd", {2473, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 6765, 203, 0, 0, 147}},
    {"two-level-s3-all-t2/vt/vecadd", {1325, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 13, 19, 304, 2715, 8, 0, 784, 164}},
    {"two-level-s3-all-t2/throttle/vecadd", {4219, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 8375, 275, 0, 0, 3703}},
    {"lrr-s4-any-t7/baseline/transpose", {1453, 928, 29696, 4, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 928, 3734, 580, 272, 0, 298}},
    {"lrr-s4-any-t7/vt/transpose", {1250, 928, 29696, 4, 0, 32, 0, 32, 16, 16, 4096, 6, 8, 928, 2232, 166, 387, 1051, 236}},
    {"lrr-s4-any-t7/throttle/transpose", {1556, 928, 29696, 4, 16, 32, 0, 32, 16, 16, 4096, 0, 0, 928, 3778, 962, 270, 0, 286}},
    {"gto-s4-all-t3/baseline/reduce", {5275, 1660, 49652, 4, 0, 64, 2, 65, 49, 16, 8320, 0, 0, 1660, 14765, 1302, 1425, 0, 1948}},
    {"gto-s4-all-t3/vt/reduce", {3696, 1660, 49652, 4, 0, 64, 2, 65, 49, 16, 8320, 22, 24, 1660, 8115, 765, 865, 2700, 679}},
    {"gto-s4-all-t3/throttle/reduce", {7371, 1660, 49652, 4, 0, 64, 2, 65, 49, 16, 8320, 0, 0, 1660, 21764, 2111, 1990, 0, 1959}},
    {"two-level-s4-any-t7/baseline/matmul", {7352, 12192, 390144, 4, 128, 64, 0, 64, 48, 16, 8192, 0, 0, 12192, 6608, 7791, 2615, 0, 202}},
    {"two-level-s4-any-t7/vt/matmul", {7204, 12192, 390144, 4, 132, 64, 0, 64, 48, 16, 8192, 6, 7, 12192, 4356, 5474, 181, 6413, 200}},
    {"two-level-s4-any-t7/throttle/matmul", {7352, 12192, 390144, 4, 128, 64, 0, 64, 48, 16, 8192, 0, 0, 12192, 6608, 7791, 2615, 0, 202}},
    {"vt-fill/bfs+reduce", {5859, 2300, 70132, 12, 608, 80, 3, 81, 65, 16, 10368, 33, 44, 2300, 2105, 85, 222, 6781, 225}},
    {"wide80/lrr", {4452, 6720, 215040, 4, 0, 320, 0, 320, 256, 64, 40960, 0, 0, 6720, 2152, 0, 0, 0, 32}},
    {"wide80/gto", {4220, 6720, 215040, 4, 0, 320, 0, 320, 192, 128, 40960, 0, 0, 6720, 1516, 112, 0, 0, 92}},
    {"wide80/two-level", {4175, 6720, 215040, 4, 0, 320, 0, 320, 192, 128, 40960, 0, 0, 6720, 1484, 63, 0, 0, 83}},
};
// clang-format on

/** Property (b) on the three machines with the default config. */
TEST(ReadySet, BitIdenticalStatsFeatureOnOff)
{
    expectPinned(defaultCases(), kFullScanDefault);
}

/** Property (b) again under randomized scheduler/VT configurations. */
TEST(ReadySet, BitIdenticalStatsFeatureOnOffRandomConfigs)
{
    expectPinned(randomCases(), kFullScanRandom);
}

/** Property (b) over the wider matrix: every pinned launch reproduces
 *  its KernelStats. */
TEST(ReadySet, KernelStatsMatchPinnedValues)
{
    expectPinned(pinnedCases(), kPinned);
}

/** The oracle also holds on the wide-CTA launch, whose ready bits span
 *  two words per scheduler. */
TEST(ReadySet, OracleCleanWithTwoWordsPerScheduler)
{
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::LooseRoundRobin,
          SchedulerPolicy::GreedyThenOldest, SchedulerPolicy::TwoLevel}) {
        GpuConfig cfg = wideConfig(policy);
        cfg.readySetOracle = true;
        runWide(cfg);
    }
}

} // namespace
} // namespace vtsim
