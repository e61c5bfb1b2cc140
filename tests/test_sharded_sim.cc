/**
 * @file
 * The sharded (--sim-threads) epoch driver: every observable output of
 * a multi-threaded run — KernelStats, interval-series JSONL, Perfetto
 * traces, vtsim-ckpt-v1 checkpoint bytes — must be bit-identical to
 * the sequential run of the same machine and workload. Also covers
 * checkpoint/restore equivalence under sharding, the shard-oracle
 * divergence detector, and the textual-Trace sequential fallback.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {

/** Private-access seam declared as a friend of Gpu (see gpu.hh). */
struct GpuTestAccess
{
    static unsigned effectiveSimThreads(const Gpu &gpu)
    { return gpu.effectiveSimThreads(); }

    static std::vector<std::vector<std::uint8_t>> captureImages(Gpu &gpu)
    { return gpu.captureShardImages(); }

    static std::vector<std::uint64_t> dispatched(const Gpu &gpu)
    {
        std::vector<std::uint64_t> out;
        for (const auto &ctx : gpu.grids_)
            out.push_back(ctx.dispatcher->dispatched());
        return out;
    }

    static void verifyEpoch(Gpu &gpu,
                            const std::vector<std::vector<std::uint8_t>> &pre,
                            const std::vector<std::uint64_t> &pre_dispatched,
                            Cycle from, Cycle to)
    { gpu.verifyShardEpoch(pre, pre_dispatched, from, to); }
};

namespace {

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

/** An 8-SM machine so sim-threads up to 8 gets real shards (the 2-SM
 *  test config would clamp 4 and 8 down to 2). */
GpuConfig
shardConfig()
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.numSms = 8;
    cfg.numMemPartitions = 4;
    cfg.maxCycles = 5'000'000;
    cfg.fastForwardEnabled = true;
    return cfg;
}

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

/** One run with full telemetry: stats + interval JSONL + end ckpt. */
struct RunOutputs
{
    KernelStats stats;
    std::string series;
    std::string checkpoint;
};

RunOutputs
runInstrumented(const GpuConfig &cfg, const std::string &workload,
                unsigned sim_threads, const std::string &tag)
{
    const std::string ckpt = tempPath("sharded_" + tag);
    std::ostringstream series;
    Gpu gpu(cfg);
    gpu.setSimThreads(sim_threads);
    gpu.enableIntervalSampler(500, series);
    gpu.setCheckpoint(ckpt, 0);
    RunOutputs out;
    out.stats = launchOn(gpu, workload);
    out.series = series.str();
    out.checkpoint = readFile(ckpt);
    std::remove(ckpt.c_str());
    return out;
}

// ---------------------------------------------------------------------------
// Bit-identity: stats, interval series and checkpoint bytes for
// sim-threads {2,4,8} vs 1 across baseline/VT/throttled machines.
// ---------------------------------------------------------------------------

TEST(ShardedSim, BitIdenticalAcrossThreadCounts)
{
    GpuConfig base = shardConfig();
    GpuConfig vt = base;
    vt.vtEnabled = true;
    GpuConfig throttled = base;
    throttled.throttleEnabled = true;

    const struct
    {
        const char *tag;
        GpuConfig cfg;
        const char *workload;
    } cases[] = {
        {"baseline-vecadd", base, "vecadd"},
        {"baseline-bfs", base, "bfs"},
        {"vt-bfs", vt, "bfs"},
        {"vt-stencil", vt, "stencil"},
        {"throttle-bfs", throttled, "bfs"},
    };

    for (const auto &c : cases) {
        const RunOutputs ref =
            runInstrumented(c.cfg, c.workload, 1, std::string(c.tag) + "_1");
        EXPECT_FALSE(ref.series.empty()) << c.tag;
        for (const unsigned threads : {2u, 4u, 8u}) {
            const std::string tag =
                std::string(c.tag) + "_" + std::to_string(threads);
            const RunOutputs got =
                runInstrumented(c.cfg, c.workload, threads, tag);
            expectIdenticalStats(ref.stats, got.stats, tag);
            EXPECT_EQ(ref.series, got.series) << tag;
            EXPECT_EQ(ref.checkpoint, got.checkpoint) << tag;
        }
    }
}

// ---------------------------------------------------------------------------
// Perfetto trace: the per-shard stages must merge back into the exact
// event stream the sequential run emits.
// ---------------------------------------------------------------------------

TEST(ShardedSim, TraceJsonMatchesSequential)
{
    GpuConfig cfg = shardConfig();
    cfg.vtEnabled = true; // Swap events exercise the SM tick-phase rank.

    std::ostringstream ref;
    {
        Gpu gpu(cfg);
        gpu.enableTraceJson(ref);
        launchOn(gpu, "bfs");
    }
    EXPECT_FALSE(ref.str().empty());

    for (const unsigned threads : {2u, 4u}) {
        std::ostringstream got;
        {
            // The writer emits the JSON footer on destruction, so the
            // Gpu must die before the streams are compared.
            Gpu gpu(cfg);
            gpu.setSimThreads(threads);
            gpu.enableTraceJson(got);
            launchOn(gpu, "bfs");
        }
        EXPECT_EQ(ref.str(), got.str()) << threads << " threads";
    }
}

// ---------------------------------------------------------------------------
// Checkpoint under sharding: a mid-run checkpoint written by a sharded
// run restores and finishes bit-identically, at any thread count.
// ---------------------------------------------------------------------------

TEST(ShardedSim, CheckpointRestoreEquivalence)
{
    GpuConfig cfg = shardConfig();
    cfg.vtEnabled = true;
    const std::string mid = tempPath("sharded_mid");
    const std::string end_a = tempPath("sharded_end_a");
    const std::string end_b = tempPath("sharded_end_b");

    // Sequential uninterrupted reference with a final-state checkpoint.
    Gpu ref(cfg);
    ref.setCheckpoint(end_a, 0);
    const KernelStats stats_ref = launchOn(ref, "bfs");
    ASSERT_GT(stats_ref.cycles, 10u);

    // A sharded run writes a mid-kernel checkpoint; writing it must not
    // perturb the run.
    Gpu sharded(cfg);
    sharded.setSimThreads(4);
    sharded.setCheckpoint(mid, stats_ref.cycles / 2);
    const KernelStats stats_sharded = launchOn(sharded, "bfs");
    expectIdenticalStats(stats_ref, stats_sharded, "checkpointing-sharded");

    // Restore the sharded run's mid checkpoint and finish — once
    // sequentially, once sharded at a different thread count. Both
    // final-state checkpoints must equal the uninterrupted run's.
    const std::string end_a_bytes = readFile(end_a);
    for (const unsigned threads : {1u, 2u}) {
        auto wl = makeWorkload("bfs", 0);
        const Kernel k = wl->buildKernel();
        GlobalMemory scratch; // Teaches wl its addresses for verify().
        wl->prepare(scratch);
        Gpu r(cfg);
        r.setSimThreads(threads);
        const LaunchParams lp = r.restoreCheckpoint(mid);
        r.setCheckpoint(end_b, 0);
        const KernelStats stats_r = r.launch(k, lp);
        EXPECT_TRUE(wl->verify(r.memory())) << threads;
        expectIdenticalStats(stats_ref, stats_r,
                             "resumed-" + std::to_string(threads));
        EXPECT_EQ(end_a_bytes, readFile(end_b)) << threads << " threads";
        std::remove(end_b.c_str());
    }
    std::remove(mid.c_str());
    std::remove(end_a.c_str());
}

// ---------------------------------------------------------------------------
// Shard oracle.
// ---------------------------------------------------------------------------

TEST(ShardOracle, CleanShardedRunPasses)
{
    // With the oracle on, every epoch is re-run sequentially and every
    // component image diffed — a full launch passing is a strong check
    // that the epoch protocol loses nothing.
    GpuConfig cfg = shardConfig();
    cfg.shardOracle = true;
    GpuConfig plain = shardConfig();

    Gpu ref(plain);
    const KernelStats stats_ref = launchOn(ref, "bfs");

    Gpu gpu(cfg);
    gpu.setSimThreads(4);
    const KernelStats stats = launchOn(gpu, "bfs");
    expectIdenticalStats(stats_ref, stats, "oracle-run");
}

TEST(ShardOracle, DetectsInjectedDivergence)
{
    // Drive the verifier directly through the test seam: capture a
    // pre-image set, perturb one component behind the oracle's back,
    // and check the image diff localizes the divergence and fatals.
    GpuConfig cfg = test::smallConfig();
    Gpu gpu(cfg);
    launchOn(gpu, "vecadd"); // Leaves a dispatcher + settled machine.

    const auto pre = GpuTestAccess::captureImages(gpu);
    const auto dispatched = GpuTestAccess::dispatched(gpu);

    // An empty epoch over untouched state verifies clean.
    GpuTestAccess::verifyEpoch(gpu, pre, dispatched, 5, 5);

    // Corrupt device memory: the rerun from `pre` cannot reproduce it,
    // so the oracle must flag the global-memory image.
    gpu.memory().write32(0, 0xdeadbeef);
    EXPECT_THROW(GpuTestAccess::verifyEpoch(gpu, pre, dispatched, 5, 5),
                 FatalError);
}

// ---------------------------------------------------------------------------
// Textual Trace facade: process-global sink, so sharding must fall
// back to sequential while it is enabled.
// ---------------------------------------------------------------------------

TEST(ShardedSim, TextualTraceForcesSequential)
{
    GpuConfig cfg = test::smallConfig();
    Gpu gpu(cfg);
    gpu.setSimThreads(2);
    EXPECT_EQ(GpuTestAccess::effectiveSimThreads(gpu), 2u);

    std::ostringstream os;
    Trace::instance().enable(TraceFlag::Swap, &os);
    EXPECT_EQ(GpuTestAccess::effectiveSimThreads(gpu), 1u);
    Trace::instance().disable();
    EXPECT_EQ(GpuTestAccess::effectiveSimThreads(gpu), 2u);
}

} // namespace
} // namespace vtsim
