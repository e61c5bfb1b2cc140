/**
 * @file
 * The SimComponent lifecycle end to end: Gpu::reset() arena reuse,
 * checkpoint/restore (vtsim-ckpt-v1) resuming bit-identically, and the
 * verifyHorizon oracle. The overarching invariant is the same one the
 * fast-forward tests enforce: no lifecycle operation — reset, a
 * checkpoint write mid-run, a restore — may change a single statistic
 * relative to the plain uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

using test::smallConfig;

/** Every field of KernelStats, bit for bit. */
void
expectIdenticalStats(const KernelStats &a, const KernelStats &b,
                     const std::string &context)
{
    EXPECT_EQ(a.cycles, b.cycles) << context;
    EXPECT_EQ(a.warpInstructions, b.warpInstructions) << context;
    EXPECT_EQ(a.threadInstructions, b.threadInstructions) << context;
    EXPECT_EQ(a.ctasCompleted, b.ctasCompleted) << context;
    EXPECT_EQ(a.ipc, b.ipc) << context;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << context;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << context;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << context;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << context;
    EXPECT_EQ(a.dramRowHits, b.dramRowHits) << context;
    EXPECT_EQ(a.dramRowMisses, b.dramRowMisses) << context;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << context;
    EXPECT_EQ(a.swapOuts, b.swapOuts) << context;
    EXPECT_EQ(a.swapIns, b.swapIns) << context;
    EXPECT_EQ(a.stalls.issued, b.stalls.issued) << context;
    EXPECT_EQ(a.stalls.memStall, b.stalls.memStall) << context;
    EXPECT_EQ(a.stalls.shortStall, b.stalls.shortStall) << context;
    EXPECT_EQ(a.stalls.barrierStall, b.stalls.barrierStall) << context;
    EXPECT_EQ(a.stalls.swapStall, b.stalls.swapStall) << context;
    EXPECT_EQ(a.stalls.idle, b.stalls.idle) << context;
}

/** Build, prepare and launch @p name on @p gpu (fresh or reset). */
KernelStats
launchOn(Gpu &gpu, const std::string &name)
{
    auto wl = makeWorkload(name, 0);
    const Kernel k = wl->buildKernel();
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    return stats;
}

std::string
tempPath(const std::string &stem)
{
    return test::uniqueTempPath(stem);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------------
// Gpu::reset(): one arena, many runs, all bit-identical to fresh Gpus.
// ---------------------------------------------------------------------------

TEST(GpuReset, ReusedArenaMatchesFreshGpu)
{
    GpuConfig base = smallConfig();
    base.fastForwardEnabled = true;
    GpuConfig vt = base;
    vt.vtEnabled = true;
    GpuConfig throttled = base;
    throttled.throttleEnabled = true;
    const struct
    {
        const char *tag;
        GpuConfig cfg;
    } machines[] = {{"baseline", base}, {"vt", vt},
                    {"throttle", throttled}};

    for (const auto &m : machines) {
        Gpu fresh(m.cfg);
        const KernelStats expect = launchOn(fresh, "bfs");

        Gpu arena(m.cfg);
        const KernelStats first = launchOn(arena, "bfs");
        expectIdenticalStats(expect, first,
                             std::string(m.tag) + "/first-use");

        // Contaminate the arena with a different workload, then reset:
        // the rerun must not see any residue (caches, stats, RNG-free
        // queues, VT state).
        arena.reset();
        launchOn(arena, "vecadd");
        arena.reset();
        const KernelStats rerun = launchOn(arena, "bfs");
        expectIdenticalStats(expect, rerun,
                             std::string(m.tag) + "/reset-reuse");
        EXPECT_EQ(arena.totalCycles(), fresh.totalCycles()) << m.tag;
    }
}

TEST(GpuReset, ClearsTelemetrySinks)
{
    GpuConfig cfg = smallConfig();
    Gpu gpu(cfg);
    std::ostringstream series, trace;
    gpu.enableIntervalSampler(100, series);
    gpu.enableTraceJson(trace);
    launchOn(gpu, "vecadd");
    EXPECT_FALSE(series.str().empty());

    // After reset, the old sinks must not receive another byte.
    gpu.reset();
    const std::string series_before = series.str();
    const std::string trace_before = trace.str();
    launchOn(gpu, "vecadd");
    EXPECT_EQ(series.str(), series_before);
    EXPECT_EQ(trace.str(), trace_before);
}

// ---------------------------------------------------------------------------
// Checkpoint/restore: resume finishes bit-identically.
// ---------------------------------------------------------------------------

TEST(Checkpoint, RestoreResumesBitIdentically)
{
    GpuConfig cfg = smallConfig();
    cfg.fastForwardEnabled = true;
    for (const bool vt : {false, true}) {
        cfg.vtEnabled = vt;
        const std::string tag = vt ? "vt" : "baseline";
        const std::string mid_path = tempPath("ckpt_mid_" + tag);
        const std::string end_a = tempPath("ckpt_end_a_" + tag);
        const std::string end_b = tempPath("ckpt_end_b_" + tag);

        // Calibrate boundaries to the workload's actual length.
        Gpu probe(cfg);
        const Cycle total = launchOn(probe, "bfs").cycles;
        ASSERT_GT(total, 10u) << tag;
        const Cycle every = total / 2;
        const Cycle interval = total / 7 ? total / 7 : 1;

        // Uninterrupted reference, with a final-state checkpoint.
        std::ostringstream series_u;
        Gpu u(cfg);
        u.enableIntervalSampler(interval, series_u);
        u.setCheckpoint(end_a, 0);
        const KernelStats stats_u = launchOn(u, "bfs");

        // Checkpointing run: writes (and overwrites) mid_path at every
        // boundary; writing checkpoints must perturb nothing.
        std::ostringstream series_c;
        Gpu c(cfg);
        c.enableIntervalSampler(interval, series_c);
        c.setCheckpoint(mid_path, every);
        const KernelStats stats_c = launchOn(c, "bfs");
        expectIdenticalStats(stats_u, stats_c, tag + "/checkpointing");
        EXPECT_EQ(series_u.str(), series_c.str()) << tag;

        // Restore the last mid-kernel checkpoint into a fresh Gpu and
        // finish: KernelStats are whole-launch and bit-identical.
        auto wl = makeWorkload("bfs", 0);
        const Kernel k = wl->buildKernel();
        GlobalMemory scratch; // Teaches wl its addresses for verify().
        wl->prepare(scratch);
        std::ostringstream series_r;
        Gpu r(cfg);
        r.enableIntervalSampler(interval, series_r);
        const LaunchParams lp = r.restoreCheckpoint(mid_path);
        r.setCheckpoint(end_b, 0);
        const KernelStats stats_r = r.launch(k, lp);
        EXPECT_TRUE(wl->verify(r.memory())) << tag;
        expectIdenticalStats(stats_u, stats_r, tag + "/resumed");

        // The resumed run emits exactly the tail of the uninterrupted
        // interval series (sampler baselines travel in the checkpoint).
        const std::string full = series_u.str();
        const std::string restored_tail = series_r.str();
        ASSERT_LE(restored_tail.size(), full.size()) << tag;
        EXPECT_FALSE(restored_tail.empty()) << tag;
        EXPECT_EQ(full.substr(full.size() - restored_tail.size()),
                  restored_tail)
            << tag;

        // Strongest form: the resumed run's final-state checkpoint is
        // byte-identical to the uninterrupted run's — every queue,
        // cursor, cache line and statistic in the machine converged.
        EXPECT_EQ(readFile(end_a), readFile(end_b)) << tag;

        std::remove(mid_path.c_str());
        std::remove(end_a.c_str());
        std::remove(end_b.c_str());
    }
}

TEST(Checkpoint, RejectsMismatchedConfigAndKernel)
{
    GpuConfig cfg = smallConfig();
    const std::string path = tempPath("ckpt_guard");
    {
        Gpu gpu(cfg);
        gpu.setCheckpoint(path, 0);
        launchOn(gpu, "vecadd");
    }

    // A different machine configuration must refuse the checkpoint.
    GpuConfig other = cfg;
    other.numSms += 1;
    Gpu wrong(other);
    EXPECT_THROW(wrong.restoreCheckpoint(path), FatalError);

    // A different kernel must refuse to resume.
    Gpu gpu(cfg);
    const LaunchParams lp = gpu.restoreCheckpoint(path);
    auto other_wl = makeWorkload("reduce", 0);
    const Kernel other_kernel = other_wl->buildKernel();
    EXPECT_THROW(gpu.launch(other_kernel, lp), FatalError);
}

TEST(Checkpoint, RejectsGarbageFiles)
{
    const std::string path = tempPath("ckpt_garbage");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a checkpoint";
    }
    Gpu gpu(smallConfig());
    EXPECT_THROW(gpu.restoreCheckpoint(path), FatalError);
    EXPECT_THROW(gpu.restoreCheckpoint(path + ".missing"), FatalError);
    std::remove(path.c_str());
}

/** Version 4 dropped two GpuConfig fields from the "conf" section, so
 *  the header check must refuse a version-3 image up front instead of
 *  misreading its config. */
TEST(Checkpoint, RejectsVersion3Image)
{
    Gpu gpu(smallConfig());
    launchOn(gpu, "vecadd");
    std::vector<std::uint8_t> image;
    gpu.saveCheckpoint(image);
    std::uint32_t version = 0;
    std::memcpy(&version, image.data() + 8, sizeof(version));
    ASSERT_EQ(version, 4u);
    version = 3;
    std::memcpy(image.data() + 8, &version, sizeof(version));

    Gpu fresh(smallConfig());
    try {
        fresh.restoreCheckpoint(image);
        FAIL() << "a version-3 checkpoint was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported checkpoint version 3"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------------
// verifyHorizon oracle: a fast-forward may never skip real work.
// ---------------------------------------------------------------------------

TEST(HorizonOracle, HoldsAcrossMachinesAndWorkloads)
{
    // The oracle recomputes every component's next event without caches
    // on each jump and asserts none precedes the horizon. horizonOracle
    // forces it on even in release builds, so this test bites in both.
    GpuConfig base = smallConfig();
    base.fastForwardEnabled = true;
    base.horizonOracle = true;
    GpuConfig vt = base;
    vt.vtEnabled = true;
    GpuConfig throttled = base;
    throttled.throttleEnabled = true;
    const struct
    {
        const char *tag;
        GpuConfig cfg;
    } machines[] = {{"baseline", base}, {"vt", vt},
                    {"throttle", throttled}};

    for (const auto &m : machines) {
        for (const auto &name : {"vecadd", "bfs", "stencil"}) {
            GpuConfig on = m.cfg;
            GpuConfig off = m.cfg;
            off.fastForwardEnabled = false;
            Gpu a(on), b(off);
            const KernelStats sa = launchOn(a, name);
            const KernelStats sb = launchOn(b, name);
            expectIdenticalStats(
                sa, sb, std::string(m.tag) + "/oracle/" + name);
            EXPECT_EQ(b.fastForwardedCycles(), 0u);
        }
    }
}

// ---------------------------------------------------------------------------
// Rng streams round-trip through save/restore and reset.
// ---------------------------------------------------------------------------

TEST(RngLifecycle, SaveRestoreContinuesSequence)
{
    Rng a(0x1234);
    for (int i = 0; i < 100; ++i)
        a.next();

    std::uint64_t words[4];
    a.saveState(words);
    Rng b; // Different seed, different position.
    b.restoreState(words, a.seed());

    EXPECT_EQ(b.seed(), a.seed());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());

    // reset() rewinds to the construction seed exactly.
    a.reset();
    Rng fresh(0x1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), fresh.next());
}

} // namespace
} // namespace vtsim
