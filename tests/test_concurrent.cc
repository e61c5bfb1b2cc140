/**
 * @file
 * Concurrent-kernel execution (Gpu::launchConcurrent): a single-grid
 * concurrent launch must be bit-identical to Gpu::launch on every
 * workload and machine; each share policy must be deterministic,
 * including under --sim-threads; per-grid statistics must partition
 * the aggregate counters; and a mid-co-run checkpoint must restore
 * and finish bit-identically.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
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

void
expectIdenticalGridStats(const std::vector<GridStats> &a,
                         const std::vector<GridStats> &b,
                         const std::string &context)
{
    ASSERT_EQ(a.size(), b.size()) << context;
    for (std::size_t g = 0; g < a.size(); ++g) {
        const std::string tag = context + " grid " + std::to_string(g);
        EXPECT_EQ(a[g].kernelName, b[g].kernelName) << tag;
        EXPECT_EQ(a[g].priority, b[g].priority) << tag;
        expectIdenticalStats(a[g].stats, b[g].stats, tag);
    }
}

/** The three machines of the paper's evaluation. */
struct Machine
{
    const char *tag;
    GpuConfig cfg;
};

std::vector<Machine>
machines(const GpuConfig &base)
{
    GpuConfig vt = base;
    vt.vtEnabled = true;
    GpuConfig throttled = base;
    throttled.throttleEnabled = true;
    return {{"baseline", base}, {"vt", vt}, {"throttled", throttled}};
}

/** An SM count that gives --sim-threads {2,4} real shards. */
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

/** One co-run: prepared workloads, their kernels, and the results. */
struct CoRunResult
{
    KernelStats aggregate;
    std::vector<GridStats> grids;
};

/**
 * Launch @p names concurrently on a fresh Gpu of @p cfg and verify
 * every workload's output. Workloads are prepared in order into the
 * one global memory (the bump allocator keeps them disjoint).
 */
CoRunResult
coRun(const GpuConfig &cfg, const std::vector<std::string> &names,
      SharePolicy policy, unsigned sim_threads = 1,
      const std::vector<std::uint32_t> &priorities = {})
{
    Gpu gpu(cfg);
    gpu.setSimThreads(sim_threads);
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
        gl.priority = i < priorities.size() ? priorities[i] : 0;
        launches.push_back(std::move(gl));
    }
    CoRunResult out;
    out.aggregate = gpu.launchConcurrent(launches, policy);
    out.grids = gpu.gridStats();
    for (std::size_t i = 0; i < wls.size(); ++i)
        EXPECT_TRUE(wls[i]->verify(gpu.memory())) << names[i];
    return out;
}

std::string
tempPath(const std::string &stem)
{
    return test::uniqueTempPath(stem);
}

// ---------------------------------------------------------------------------
// N=1 degeneration: launchConcurrent with a single grid must be
// bit-identical to the classic Gpu::launch on every workload and all
// three machines.
// ---------------------------------------------------------------------------

TEST(Concurrent, SingleGridBitIdenticalToLaunch)
{
    for (const Machine &m : machines(test::smallConfig())) {
        for (const std::string &name : benchmarkNames()) {
            const std::string tag = std::string(m.tag) + "/" + name;

            KernelStats classic;
            {
                Gpu gpu(m.cfg);
                auto wl = makeWorkload(name, 0);
                const Kernel k = wl->buildKernel();
                const LaunchParams lp = wl->prepare(gpu.memory());
                classic = gpu.launch(k, lp);
                EXPECT_TRUE(wl->verify(gpu.memory())) << tag;
            }

            const CoRunResult solo =
                coRun(m.cfg, {name}, SharePolicy::VtFill);
            expectIdenticalStats(classic, solo.aggregate, tag);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-grid split: in a solo run grid 0's split counters must equal the
// aggregate (nothing is lost to the split), and in a co-run the grids'
// split counters must sum to the aggregate (nothing is double-counted).
// Cycles are shared wall-clock, stalls are not split per grid.
// ---------------------------------------------------------------------------

void
expectSplitFieldsEqual(const KernelStats &split, const KernelStats &agg,
                       const std::string &context)
{
    EXPECT_EQ(split.warpInstructions, agg.warpInstructions) << context;
    EXPECT_EQ(split.threadInstructions, agg.threadInstructions) << context;
    EXPECT_EQ(split.ctasCompleted, agg.ctasCompleted) << context;
    EXPECT_EQ(split.l1Hits, agg.l1Hits) << context;
    EXPECT_EQ(split.l1Misses, agg.l1Misses) << context;
    EXPECT_EQ(split.l2Hits, agg.l2Hits) << context;
    EXPECT_EQ(split.l2Misses, agg.l2Misses) << context;
    EXPECT_EQ(split.dramRowHits, agg.dramRowHits) << context;
    EXPECT_EQ(split.dramRowMisses, agg.dramRowMisses) << context;
    EXPECT_EQ(split.dramBytes, agg.dramBytes) << context;
    EXPECT_EQ(split.swapOuts, agg.swapOuts) << context;
    EXPECT_EQ(split.swapIns, agg.swapIns) << context;
}

TEST(Concurrent, SoloPerGridSplitMatchesAggregate)
{
    for (const Machine &m : machines(test::smallConfig())) {
        const CoRunResult solo = coRun(m.cfg, {"bfs"}, SharePolicy::VtFill);
        ASSERT_EQ(solo.grids.size(), 1u) << m.tag;
        EXPECT_EQ(solo.grids[0].kernelName, "bfs") << m.tag;
        EXPECT_EQ(solo.grids[0].stats.cycles, solo.aggregate.cycles)
            << m.tag;
        expectSplitFieldsEqual(solo.grids[0].stats, solo.aggregate, m.tag);
    }
}

TEST(Concurrent, CoRunPerGridSplitSumsToAggregate)
{
    for (const SharePolicy policy :
         {SharePolicy::Spatial, SharePolicy::VtFill, SharePolicy::Preempt}) {
        const std::string tag = toString(policy);
        const CoRunResult run = coRun(test::smallVtConfig(),
                                      {"vecadd", "bfs"}, policy, 1, {0, 1});
        ASSERT_EQ(run.grids.size(), 2u) << tag;
        KernelStats sum;
        for (const GridStats &gs : run.grids) {
            sum.warpInstructions += gs.stats.warpInstructions;
            sum.threadInstructions += gs.stats.threadInstructions;
            sum.ctasCompleted += gs.stats.ctasCompleted;
            sum.l1Hits += gs.stats.l1Hits;
            sum.l1Misses += gs.stats.l1Misses;
            sum.l2Hits += gs.stats.l2Hits;
            sum.l2Misses += gs.stats.l2Misses;
            sum.dramRowHits += gs.stats.dramRowHits;
            sum.dramRowMisses += gs.stats.dramRowMisses;
            sum.dramBytes += gs.stats.dramBytes;
            sum.swapOuts += gs.stats.swapOuts;
            sum.swapIns += gs.stats.swapIns;
        }
        expectSplitFieldsEqual(sum, run.aggregate, tag);
        // Both grids made progress.
        EXPECT_GT(run.grids[0].stats.ctasCompleted, 0u) << tag;
        EXPECT_GT(run.grids[1].stats.ctasCompleted, 0u) << tag;
    }
}

// ---------------------------------------------------------------------------
// Determinism: the same co-run twice gives bit-identical aggregate and
// per-grid statistics, for every policy.
// ---------------------------------------------------------------------------

TEST(Concurrent, CoRunDeterministicPerPolicy)
{
    const std::vector<std::string> mix = {"vecadd", "bfs"};
    for (const SharePolicy policy :
         {SharePolicy::Spatial, SharePolicy::VtFill, SharePolicy::Preempt}) {
        const std::string tag = toString(policy);
        const CoRunResult a =
            coRun(test::smallVtConfig(), mix, policy, 1, {0, 1});
        const CoRunResult b =
            coRun(test::smallVtConfig(), mix, policy, 1, {0, 1});
        expectIdenticalStats(a.aggregate, b.aggregate, tag);
        expectIdenticalGridStats(a.grids, b.grids, tag);
    }
}

TEST(Concurrent, ThreeWayCoRunDeterministic)
{
    const std::vector<std::string> mix = {"vecadd", "stencil", "bfs"};
    const CoRunResult a =
        coRun(test::smallVtConfig(), mix, SharePolicy::VtFill);
    const CoRunResult b =
        coRun(test::smallVtConfig(), mix, SharePolicy::VtFill);
    ASSERT_EQ(a.grids.size(), 3u);
    expectIdenticalStats(a.aggregate, b.aggregate, "3-way");
    expectIdenticalGridStats(a.grids, b.grids, "3-way");
}

// ---------------------------------------------------------------------------
// Sharding: a co-run under --sim-threads {2,4} is bit-identical to the
// sequential co-run, for every policy.
// ---------------------------------------------------------------------------

TEST(Concurrent, CoRunShardedBitIdentical)
{
    GpuConfig cfg = shardConfig();
    cfg.vtEnabled = true;
    const std::vector<std::string> mix = {"vecadd", "bfs"};
    for (const SharePolicy policy :
         {SharePolicy::Spatial, SharePolicy::VtFill, SharePolicy::Preempt}) {
        const CoRunResult ref = coRun(cfg, mix, policy, 1, {0, 1});
        for (const unsigned threads : {2u, 4u}) {
            const std::string tag =
                toString(policy) + "/" + std::to_string(threads);
            const CoRunResult got = coRun(cfg, mix, policy, threads, {0, 1});
            expectIdenticalStats(ref.aggregate, got.aggregate, tag);
            expectIdenticalGridStats(ref.grids, got.grids, tag);
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore of a mid-flight co-run: a checkpoint written half
// way through restores on a fresh Gpu and finishes with the exact
// statistics of the uninterrupted run.
// ---------------------------------------------------------------------------

TEST(Concurrent, CheckpointRestoreMidCoRun)
{
    const GpuConfig cfg = test::smallVtConfig();
    const std::vector<std::string> mix = {"vecadd", "bfs"};
    for (const SharePolicy policy :
         {SharePolicy::Spatial, SharePolicy::VtFill, SharePolicy::Preempt}) {
        const std::string tag = toString(policy);
        const CoRunResult ref = coRun(cfg, mix, policy, 1, {0, 1});
        ASSERT_GT(ref.aggregate.cycles, 10u) << tag;

        // The instrumented run writes one checkpoint half way through;
        // writing it must not perturb the run.
        const std::string mid = tempPath("corun_mid_" + tag);
        {
            Gpu gpu(cfg);
            gpu.setCheckpoint(mid, ref.aggregate.cycles / 2);
            std::vector<std::unique_ptr<Workload>> wls;
            std::vector<Kernel> kernels;
            std::vector<GridLaunch> launches;
            for (const std::string &name : mix) {
                wls.push_back(makeWorkload(name, 0));
                kernels.push_back(wls.back()->buildKernel());
            }
            for (std::size_t i = 0; i < mix.size(); ++i) {
                GridLaunch gl;
                gl.kernel = &kernels[i];
                gl.params = wls[i]->prepare(gpu.memory());
                gl.priority = std::uint32_t(i);
                launches.push_back(std::move(gl));
            }
            const KernelStats stats = gpu.launchConcurrent(launches, policy);
            expectIdenticalStats(ref.aggregate, stats, tag + " ckpt-run");
            expectIdenticalGridStats(ref.grids, gpu.gridStats(),
                                     tag + " ckpt-run");
        }

        // Restore and finish: rebuild the kernels (a checkpoint cannot
        // carry live Kernel objects) and resume with the checkpointed
        // grid table and policy.
        {
            Gpu gpu(cfg);
            gpu.restoreCheckpoint(mid);
            std::vector<std::unique_ptr<Workload>> wls;
            std::vector<Kernel> kernels;
            GlobalMemory scratch; // Teaches the workloads their addresses.
            for (const std::string &name : mix) {
                wls.push_back(makeWorkload(name, 0));
                kernels.push_back(wls.back()->buildKernel());
                wls.back()->prepare(scratch);
            }
            std::vector<GridLaunch> launches = gpu.restoredGrids();
            ASSERT_EQ(launches.size(), mix.size()) << tag;
            EXPECT_EQ(gpu.restoredSharePolicy(), policy) << tag;
            for (std::size_t i = 0; i < launches.size(); ++i)
                launches[i].kernel = &kernels[i];
            const KernelStats stats =
                gpu.launchConcurrent(launches, gpu.restoredSharePolicy());
            expectIdenticalStats(ref.aggregate, stats, tag + " resumed");
            expectIdenticalGridStats(ref.grids, gpu.gridStats(),
                                     tag + " resumed");
            for (std::size_t i = 0; i < wls.size(); ++i)
                EXPECT_TRUE(wls[i]->verify(gpu.memory())) << tag << mix[i];
        }
        std::remove(mid.c_str());
    }
}

// ---------------------------------------------------------------------------
// Validation: the fatal paths of launchConcurrent.
// ---------------------------------------------------------------------------

TEST(Concurrent, RejectsInvalidLaunches)
{
    Gpu gpu(test::smallConfig());
    EXPECT_THROW(gpu.launchConcurrent({}, SharePolicy::VtFill), FatalError);

    const Kernel k = test::storeConstKernel();
    LaunchParams lp;
    lp.grid = {4, 1, 1};
    lp.cta = {32, 1, 1};
    lp.params = {0, 128, 7};

    GridLaunch gl;
    gl.kernel = &k;
    gl.params = lp;
    std::vector<GridLaunch> too_many(maxGrids + 1, gl);
    EXPECT_THROW(gpu.launchConcurrent(too_many, SharePolicy::VtFill),
                 FatalError);

    // Preempt needs the VT machine to vacate active slots.
    std::vector<GridLaunch> pair(2, gl);
    EXPECT_THROW(gpu.launchConcurrent(pair, SharePolicy::Preempt),
                 FatalError);
}

TEST(Concurrent, SharePolicyNames)
{
    SharePolicy p;
    EXPECT_TRUE(parseSharePolicy("spatial", p));
    EXPECT_EQ(p, SharePolicy::Spatial);
    EXPECT_TRUE(parseSharePolicy("vt-fill", p));
    EXPECT_EQ(p, SharePolicy::VtFill);
    EXPECT_TRUE(parseSharePolicy("preempt", p));
    EXPECT_EQ(p, SharePolicy::Preempt);
    EXPECT_FALSE(parseSharePolicy("round-robin", p));
    EXPECT_EQ(toString(SharePolicy::Spatial), "spatial");
    EXPECT_EQ(toString(SharePolicy::VtFill), "vt-fill");
    EXPECT_EQ(toString(SharePolicy::Preempt), "preempt");
}

} // namespace
} // namespace vtsim
