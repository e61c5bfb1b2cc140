/**
 * @file
 * Determinism of the event-horizon fast-forward and the parallel
 * experiment runner. Fast-forward skips cycles, never work: every
 * KernelStats field must be bit-identical to the naive one-cycle-at-a-
 * time loop, on the baseline, Virtual Thread, and CTA-throttled
 * machines alike. Likewise, the parallel runner fans hermetic Gpu
 * instances across threads, so a --jobs 4 batch must reproduce a
 * sequential batch exactly, traces included.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hh"
#include "gpu/gpu.hh"
#include "parallel_runner.hh"
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

/** Run @p name on @p cfg; optionally report the fast-forwarded cycles. */
KernelStats
runOn(const GpuConfig &cfg, const std::string &name,
      Cycle *fast_forwarded = nullptr)
{
    auto wl = makeWorkload(name, 0);
    const Kernel k = wl->buildKernel();
    Gpu gpu(cfg);
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    if (fast_forwarded)
        *fast_forwarded = gpu.fastForwardedCycles();
    return stats;
}

TEST(FastForward, BitIdenticalStatsOnBaseline)
{
    GpuConfig on = smallConfig();
    on.fastForwardEnabled = true;
    GpuConfig off = on;
    off.fastForwardEnabled = false;
    for (const auto &name : {"vecadd", "reduce", "bfs", "matmul"}) {
        const KernelStats a = runOn(on, name);
        const KernelStats b = runOn(off, name);
        expectIdenticalStats(a, b, std::string("baseline/") + name);
    }
}

TEST(FastForward, BitIdenticalStatsUnderVirtualThread)
{
    GpuConfig on = smallConfig();
    on.vtEnabled = true;
    on.fastForwardEnabled = true;
    GpuConfig off = on;
    off.fastForwardEnabled = false;
    for (const auto &name : {"vecadd", "bfs", "stencil"}) {
        const KernelStats a = runOn(on, name);
        const KernelStats b = runOn(off, name);
        expectIdenticalStats(a, b, std::string("vt/") + name);
    }
}

TEST(FastForward, BitIdenticalStatsUnderThrottling)
{
    GpuConfig on = smallConfig();
    on.throttleEnabled = true;
    on.fastForwardEnabled = true;
    GpuConfig off = on;
    off.fastForwardEnabled = false;
    for (const auto &name : {"vecadd", "bfs"}) {
        const KernelStats a = runOn(on, name);
        const KernelStats b = runOn(off, name);
        expectIdenticalStats(a, b, std::string("throttle/") + name);
    }
}

TEST(FastForward, ActuallySkipsCyclesOnMemoryBoundWork)
{
    // A pointer chase leaves the machine event-blocked for long DRAM
    // windows; the horizon jump must cover a meaningful share of them.
    GpuConfig cfg = smallConfig();
    cfg.fastForwardEnabled = true;
    Cycle skipped = 0;
    runOn(cfg, "bfs", &skipped);
    EXPECT_GT(skipped, 0u);

    cfg.fastForwardEnabled = false;
    runOn(cfg, "bfs", &skipped);
    EXPECT_EQ(skipped, 0u);
}

TEST(ParallelRunner, MatchesSequentialRun)
{
    // The acceptance gate: a --jobs 4 batch reproduces jobs=1 exactly,
    // result for result, field for field.
    const GpuConfig base = smallConfig();
    GpuConfig vt = base;
    vt.vtEnabled = true;

    std::vector<bench::RunSpec> specs;
    for (const auto &name : {"vecadd", "reduce", "bfs", "matmul"}) {
        specs.push_back({name, base, 0});
        specs.push_back({name, vt, 0});
    }
    const auto sequential = bench::runAll(specs, 1);
    const auto parallel = bench::runAll(specs, 4);

    ASSERT_EQ(sequential.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(sequential[i].workload, parallel[i].workload);
        EXPECT_TRUE(parallel[i].verified);
        expectIdenticalStats(sequential[i].stats, parallel[i].stats,
                             "jobs4/" + specs[i].workload);
    }
}

TEST(ParallelRunner, TracedBatchMatchesSequentialFiles)
{
    // Each run's Perfetto writer is its own: a traced batch fans out,
    // and every per-run file equals the one a jobs=1 batch writes.
    GpuConfig vt = smallConfig();
    vt.vtEnabled = true;
    std::vector<bench::RunSpec> specs;
    for (const auto &name : {"vecadd", "reduce", "bfs", "matmul"})
        specs.push_back({name, vt, 0});

    const bench::TelemetryOptions saved = bench::telemetryOptions();
    const auto traced = [&](unsigned jobs) {
        bench::TelemetryOptions opts = saved;
        opts.traceJsonPath = test::uniqueTempPath(
            "runner_jobs" + std::to_string(jobs)) + ".json";
        opts.traceCategories = telemetry::allTraceCategories;
        bench::setTelemetryOptions(opts);
        bench::runAll(specs, jobs);
        std::vector<std::string> files;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string path =
                bench::indexedPath(opts.traceJsonPath, i);
            std::ifstream in(path, std::ios::binary);
            std::ostringstream text;
            text << in.rdbuf();
            files.push_back(text.str());
            std::remove(path.c_str());
        }
        return files;
    };
    const auto sequential = traced(1);
    const auto parallel = traced(4);
    bench::setTelemetryOptions(saved);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_NE(sequential[i].find("\"cat\":\"issue\""),
                  std::string::npos)
            << specs[i].workload;
        EXPECT_TRUE(sequential[i] == parallel[i]) << specs[i].workload;
    }
}

TEST(ParallelRunner, ResolveJobsPrecedence)
{
    const char *argv_flag[] = {"bin", "--jobs", "3"};
    EXPECT_EQ(bench::resolveJobs(3, const_cast<char **>(argv_flag)), 3u);

    const char *argv_eq[] = {"bin", "--jobs=7"};
    EXPECT_EQ(bench::resolveJobs(2, const_cast<char **>(argv_eq)), 7u);

    // A nonsense request is an error, not a silent one-worker
    // fallback: the user asked for something specific and got it
    // wrong.
    const char *argv_zero[] = {"bin", "--jobs", "0"};
    EXPECT_THROW(bench::resolveJobs(3, const_cast<char **>(argv_zero)),
                 FatalError);
    const char *argv_text[] = {"bin", "--jobs=banana"};
    EXPECT_THROW(bench::resolveJobs(2, const_cast<char **>(argv_text)),
                 FatalError);
}

TEST(ParallelRunner, FailedRunExitsWithStatusOne)
{
    // The figure binaries' entry point: a run that fails is an error
    // exit naming the spec, not an uncaught exception (status 134).
    const std::vector<bench::RunSpec> specs{
        {"vecadd", smallConfig(), 0},
        {"no-such-workload", smallConfig(), 0}};
    const char *argv[] = {"bin", "--jobs", "1"};
    EXPECT_EXIT(bench::runAll(specs, 3, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1),
                "spec 1 \\('no-such-workload'\\) failed");
}

} // namespace
} // namespace vtsim
