#include "parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string_view>
#include <thread>

#include "common/log.hh"
#include "common/logger.hh"
#include "common/trace.hh"
#include "service/stats_json.hh"
#include "service/worker_pool.hh"

namespace vtsim::bench {

unsigned
resolveJobs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--jobs") {
            if (i + 1 >= argc)
                VTSIM_FATAL("--jobs needs a value");
            return parseCount<unsigned>(argv[i + 1], "--jobs", 1);
        }
        if (arg.substr(0, 7) == "--jobs=")
            return parseCount<unsigned>(argv[i] + 7, "--jobs", 1);
    }
    if (const char *env = std::getenv("VTSIM_JOBS"))
        return parseCount<unsigned>(env, "VTSIM_JOBS", 1);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw < 1 ? 1 : hw;
}

std::vector<RunResult>
runAll(const std::vector<RunSpec> &specs, unsigned jobs)
{
    std::vector<RunResult> results(specs.size());
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    bool have_error = false;
    std::size_t error_index = 0;
    std::string error_what;

    unsigned pool_size = static_cast<unsigned>(
        std::min<std::size_t>(jobs ? jobs : 1, specs.size()));
    if (pool_size < 1)
        pool_size = 1;
    if (pool_size > 1 && Trace::instance().anyEnabled()) {
        // The textual Trace sink is process-global and unsynchronized
        // (trace.hh); concurrent Gpus would interleave its lines.
        std::fprintf(stderr, "[parallel-runner] global trace sink "
                             "enabled; forcing jobs=1\n");
        pool_size = 1;
    }

    // --jobs and --sim-threads multiply: each of the pool's workers
    // shards its simulation across simThreads threads. Oversubscribing
    // the host only adds scheduler thrash (every run still finishes
    // bit-identically), so when the product exceeds the hardware
    // thread count, the job count wins — independent runs scale near-
    // linearly while epoch barriers cap intra-run speedup — and the
    // shard count is trimmed to fit. A single-job batch is exempt:
    // there is no composition to arbitrate, and an explicit
    // "--jobs 1 --sim-threads N" (the determinism/TSan harness shape)
    // must actually shard even on a small host.
    const TelemetryOptions &telemetry = telemetryOptions();
    if (telemetry.simThreads > 1 && pool_size > 1) {
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        if (static_cast<std::uint64_t>(pool_size) * telemetry.simThreads >
            hw) {
            const unsigned capped = std::max(1u, hw / pool_size);
            std::fprintf(stderr,
                         "[parallel-runner] jobs=%u x sim-threads=%u "
                         "oversubscribes %u hardware threads; capping "
                         "sim-threads at %u\n",
                         pool_size, telemetry.simThreads, hw, capped);
            TelemetryOptions adjusted = telemetry;
            adjusted.simThreads = capped;
            setTelemetryOptions(adjusted);
        }
    }

    // Dispense spec indices to the shared worker pool (the same
    // WorkerPool/GpuArena the vtsimd job service schedules onto):
    // every run is hermetic, each worker reuses its arena while
    // consecutive specs share a config.
    const service::WorkerPool::Source source =
        [&](service::WorkerPool::Task &out, unsigned) {
            const std::size_t i = next.fetch_add(1);
            if (i >= specs.size())
                return false;
            out = [&specs, &results, &error_mutex, &have_error,
                   &error_index, &error_what,
                   i](service::GpuArena &arena, unsigned) {
                const RunSpec &spec = specs[i];
                try {
                    Gpu &gpu = arena.acquire(spec.config);
                    if (spec.kernels.size() > 1) {
                        results[i] = runCoRunOn(gpu, spec.kernels,
                                                spec.sharePolicy,
                                                spec.scale, i);
                    } else {
                        results[i] = runWorkloadOn(gpu, spec.workload,
                                                   spec.scale, i);
                    }
                } catch (const std::exception &e) {
                    arena.discard(); // Never reuse a mid-launch arena.
                    const std::lock_guard<std::mutex> guard(error_mutex);
                    // Every failure is logged with its spec index, not
                    // just the one that gets rethrown.
                    logging::error("parallel-runner", "spec ", i, " ('",
                                   spec.workload, "') failed: ",
                                   e.what());
                    if (!have_error) {
                        have_error = true;
                        error_index = i;
                        error_what = e.what();
                    }
                } catch (...) {
                    arena.discard();
                    const std::lock_guard<std::mutex> guard(error_mutex);
                    logging::error("parallel-runner", "spec ", i, " ('",
                                   spec.workload,
                                   "') failed: unknown exception");
                    if (!have_error) {
                        have_error = true;
                        error_index = i;
                        error_what = "unknown exception";
                    }
                }
            };
            return true;
        };

    const auto start = std::chrono::steady_clock::now();
    {
        // inline_single: --jobs 1 stays a plain sequential loop on
        // this thread, trivial to debug and profile.
        service::WorkerPool pool(pool_size, source,
                                 /*inline_single=*/true);
        pool.join();
    }
    const double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();

    if (have_error) {
        VTSIM_FATAL("spec ", error_index, " ('",
                    specs[error_index].workload,
                    "') failed: ", error_what);
    }

    std::uint64_t cycles = 0;
    std::uint64_t thread_instructions = 0;
    for (const RunResult &r : results) {
        cycles += r.stats.cycles;
        thread_instructions += r.stats.threadInstructions;
    }
    const double safe_wall = wall > 0.0 ? wall : 1e-9;
    std::fprintf(stderr,
                 "[parallel-runner] %zu runs, jobs=%u: wall %.3fs, "
                 "%.1f Kcyc/s, %.2f MIPS\n",
                 specs.size(), pool_size, wall,
                 cycles / safe_wall / 1e3,
                 thread_instructions / safe_wall / 1e6);
    return results;
}

std::vector<RunResult>
runAll(const std::vector<RunSpec> &specs, int argc, char **argv)
{
    unsigned jobs = 1;
    try {
        setTelemetryOptions(parseTelemetryArgs(argc, argv));
        jobs = resolveJobs(argc, argv);
    } catch (const FatalError &e) {
        // A bad command line is a usage error, not a crash.
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(1);
    }
    const auto start = std::chrono::steady_clock::now();
    auto results = runAll(specs, jobs);
    const double batch_wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    const TelemetryOptions &opts = telemetryOptions();
    if (!opts.statsJsonPath.empty())
        writeStatsJson(opts.statsJsonPath, specs, results, batch_wall);
    return results;
}

void
writeStatsJson(const std::string &path,
               const std::vector<RunSpec> &specs,
               const std::vector<RunResult> &results,
               double batchWallSeconds)
{
    VTSIM_ASSERT(specs.size() == results.size(),
                 "stats JSON with mismatched specs/results");
    std::ofstream os(path);
    if (!os)
        VTSIM_FATAL("cannot open stats-json file '", path, "'");

    std::vector<service::RunRecord> runs;
    runs.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        service::RunRecord run;
        run.workload = results[i].workload;
        run.scale = specs[i].scale;
        run.config = specs[i].config;
        run.verified = results[i].verified;
        run.wallSeconds = results[i].wallSeconds;
        run.maxSimtDepth = results[i].maxSimtDepth;
        run.stats = results[i].stats;
        run.intervalSeries = results[i].intervalSeries;
        run.grids = results[i].grids;
        if (specs[i].kernels.size() > 1)
            run.sharePolicy = toString(specs[i].sharePolicy);
        runs.push_back(std::move(run));
    }

    // The batch header carries the [sim-rate]/[parallel-runner]
    // stderr numbers in machine-readable form.
    const TelemetryOptions &opts = telemetryOptions();
    service::BatchMeta meta;
    double wall = batchWallSeconds;
    if (wall <= 0.0) {
        for (const RunResult &r : results)
            wall += r.wallSeconds;
    }
    meta.wallMs = wall * 1e3;
    meta.simThreads = opts.simThreads;
    std::uint64_t cycles = 0;
    std::uint64_t thread_instructions = 0;
    for (const RunResult &r : results) {
        cycles += r.stats.cycles;
        thread_instructions += r.stats.threadInstructions;
    }
    if (wall > 0.0) {
        meta.kcyclesPerSec = double(cycles) / wall / 1e3;
        meta.mips = double(thread_instructions) / wall / 1e6;
    }
    service::writeStatsJson(os, runs, /*service=*/nullptr, meta);
}

} // namespace vtsim::bench
