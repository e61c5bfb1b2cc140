/**
 * @file
 * Command-line driver: run any suite benchmark under any machine
 * configuration without writing code — the entry point a downstream
 * user scripts sweeps with.
 *
 * Usage:
 *   run_benchmark <name> [<name>...] [options]
 *     --jobs N              run several benchmarks N at a time (also
 *                           honors VTSIM_JOBS, exactly like the figure
 *                           binaries; malformed values are an error)
 *     --sim-threads N       shard each simulation's SMs and memory
 *                           partitions across N threads — same stats,
 *                           traces and checkpoints, less wall clock
 *                           (also honors VTSIM_SIM_THREADS)
 *     --vt                  enable Virtual Thread
 *     --vtmax N             virtual-CTA budget per SM (0 = capacity)
 *     --swap-latency N      swap out AND in latency, cycles
 *     --scheduler P         lrr | gto | two-level
 *     --sms N               number of SMs
 *     --scale N             problem scale (0 = tiny, 1 = default)
 *     --bypass-l1           route global loads around the L1
 *     --trace-json PATH     write a Perfetto trace of the run
 *     --trace FLAGS         the categories --trace-json records
 *                           (issue,mem,swap,cta,dram,barrier,all;
 *                           default swap,cta,dram,barrier); needs
 *                           --trace-json
 *     --checkpoint PATH     write a vtsim-ckpt-v1 checkpoint (once at
 *                           kernel end, or on a cadence with
 *                           --checkpoint-every N)
 *     --restore PATH        resume a checkpointed run (same benchmark
 *                           and configuration flags as the original)
 *     --record-trace PATH   write a vtsim-mtrace-v1 memory-access
 *                           trace of the run (forces sequential)
 *     --replay-trace PATH   drive the memory system from a recorded
 *                           trace instead of executing the benchmark;
 *                           nothing executes, so results print REPLAY
 *                           instead of VERIFIED
 *     --dump-stats          print every component counter afterwards
 *   run_benchmark --list    list available benchmarks
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "config/sim_mode.hh"
#include "gpu/gpu.hh"
#include "parallel_runner.hh"
#include "workloads/workload.hh"

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: run_benchmark <name> [<name>...] [--jobs N] "
                 "[--sim-threads N]\n"
                 "       [--vt] [--vtmax N]\n"
                 "       [--swap-latency N]\n"
                 "       [--scheduler lrr|gto|two-level] [--sms N] "
                 "[--scale N]\n"
                 "       [--bypass-l1] [--throttle] [--trace FLAGS]\n"
                 "       [--stats-interval N] [--trace-json PATH]\n"
                 "       [--checkpoint PATH] [--checkpoint-every N]\n"
                 "       [--restore PATH]\n"
                 "       [--record-trace PATH] [--replay-trace PATH]\n"
                 "       [--dump-stats] | --list\n"
                 "  --trace: the categories --trace-json records: "
                 "issue,mem,swap,cta,dram,barrier,all\n"
                 "    (default swap,cta,dram,barrier)\n"
                 "  --stats-interval: stat-delta JSONL every N cycles "
                 "(to stderr)\n"
                 "  --trace-json: Perfetto trace (load at "
                 "ui.perfetto.dev)\n"
                 "  --checkpoint: vtsim-ckpt-v1 snapshot, resumable "
                 "with --restore\n"
                 "  --sim-threads: deterministic sharded simulation "
                 "(bit-identical output)\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace vtsim;

    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        usage();
    if (args[0] == "--list") {
        for (const auto &name : benchmarkNames()) {
            auto wl = makeWorkload(name, 0);
            std::printf("%-14s %s\n", name.c_str(),
                        wl->description().c_str());
        }
        return 0;
    }

    // Leading non-flag arguments are benchmark names; several fan out
    // across the batch runner below.
    std::vector<std::string> names;
    std::size_t first_flag = 0;
    while (first_flag < args.size() &&
           args[first_flag].rfind("--", 0) != 0)
        names.push_back(args[first_flag++]);
    if (names.empty())
        usage();
    const std::string name = names.front();
    GpuConfig cfg = GpuConfig::fermiLike();
    std::uint32_t scale = 1;
    bool dump_stats = false;
    Cycle stats_interval = 0;
    std::string trace_json_path;
    bool trace_flag = false;
    std::uint32_t trace_categories = telemetry::defaultTraceCategories;
    std::string checkpoint_path;
    Cycle checkpoint_every = 0;
    std::string restore_path;

    auto next_value = [&args](std::size_t &i) -> std::string {
        if (++i >= args.size())
            usage();
        return args[i];
    };
    // The value of the count flag at args[i], of min's type and at
    // least min: a malformed one is a FatalError naming the flag.
    auto next_count = [&](std::size_t &i, auto min) {
        const std::string &flag = args[i];
        return bench::parseCount<decltype(min)>(next_value(i).c_str(),
                                                flag.c_str(), min);
    };
    for (std::size_t i = first_flag; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--jobs") {
            // Validated below by resolveJobs — the figure binaries'
            // exact --jobs/VTSIM_JOBS resolution, shared, not
            // reimplemented.
            next_value(i);
        } else if (a.rfind("--jobs=", 0) == 0) {
            // Handled by resolveJobs.
        } else if (a == "--sim-threads") {
            // Validated below by parseTelemetryArgs — the figure
            // binaries' exact --sim-threads/VTSIM_SIM_THREADS
            // resolution, shared, not reimplemented.
            next_value(i);
        } else if (a.rfind("--sim-threads=", 0) == 0) {
            // Handled by parseTelemetryArgs.
        } else if (a == "--record-trace" || a == "--replay-trace") {
            // Validated below by parseTelemetryArgs (shared with the
            // figure binaries).
            next_value(i);
        } else if (a.rfind("--record-trace=", 0) == 0 ||
                   a.rfind("--replay-trace=", 0) == 0) {
            // Handled by parseTelemetryArgs.
        } else if (a == "--vt") {
            cfg.vtEnabled = true;
        } else if (a == "--vtmax") {
            cfg.vtMaxVirtualCtasPerSm = next_count(i, std::uint32_t(0));
        } else if (a == "--swap-latency") {
            cfg.vtSwapOutLatency = next_count(i, std::uint32_t(0));
            cfg.vtSwapInLatency = cfg.vtSwapOutLatency;
        } else if (a == "--scheduler") {
            const std::string p = next_value(i);
            if (p == "lrr")
                cfg.schedulerPolicy = SchedulerPolicy::LooseRoundRobin;
            else if (p == "gto")
                cfg.schedulerPolicy = SchedulerPolicy::GreedyThenOldest;
            else if (p == "two-level")
                cfg.schedulerPolicy = SchedulerPolicy::TwoLevel;
            else
                usage();
        } else if (a == "--sms") {
            cfg.numSms = next_count(i, std::uint32_t(1));
        } else if (a == "--scale") {
            scale = next_count(i, std::uint32_t(0));
        } else if (a == "--bypass-l1") {
            cfg.l1BypassGlobalLoads = true;
        } else if (a == "--throttle") {
            cfg.throttleEnabled = true;
        } else if (a == "--trace") {
            trace_categories = telemetry::parseTraceCategories(next_value(i));
            trace_flag = true;
        } else if (a == "--stats-interval") {
            stats_interval = next_count(i, Cycle(0));
        } else if (a == "--trace-json") {
            trace_json_path = next_value(i);
        } else if (a == "--checkpoint") {
            checkpoint_path = next_value(i);
        } else if (a == "--checkpoint-every") {
            checkpoint_every = next_count(i, Cycle(0));
        } else if (a == "--restore") {
            restore_path = next_value(i);
        } else if (a == "--dump-stats") {
            dump_stats = true;
        } else {
            usage();
        }
    }

    if (trace_flag && trace_json_path.empty()) {
        std::fprintf(stderr, "run_benchmark: --trace selects the "
                             "categories of --trace-json; add "
                             "--trace-json PATH\n");
        return 1;
    }

    // Shared resolution (and strict validation) of --jobs/VTSIM_JOBS:
    // a malformed value aborts with a clear message instead of
    // silently falling back to one worker.
    const unsigned jobs = bench::resolveJobs(argc, argv);
    // Same strict, shared resolution for --sim-threads and the
    // memory-trace flags (record + replay together is a fatal error
    // inside parseTelemetryArgs).
    const bench::TelemetryOptions shared =
        bench::parseTelemetryArgs(argc, argv);
    const unsigned sim_threads = shared.simThreads;
    bench::setTelemetryOptions(shared);

    // This binary's own --checkpoint/--restore flags join the shared
    // trace flags in one mode-matrix check (config/sim_mode.hh).
    {
        SimModeSpec mode;
        mode.recordTrace = !shared.recordTracePath.empty();
        mode.replayTrace = !shared.replayTracePath.empty();
        mode.restore = !restore_path.empty();
        mode.checkpointEvery = checkpoint_every;
        mode.vtEnabled = cfg.vtEnabled;
        requireValidSimMode(mode);
    }

    if (names.size() > 1) {
        if (dump_stats || !checkpoint_path.empty() ||
            !restore_path.empty()) {
            std::fprintf(stderr,
                         "run_benchmark: --dump-stats, --checkpoint "
                         "and --restore need a single benchmark\n");
            return 2;
        }
        bench::TelemetryOptions telemetry = shared;
        telemetry.statsInterval = stats_interval;
        telemetry.traceJsonPath = trace_json_path;
        telemetry.traceCategories = trace_categories;
        bench::setTelemetryOptions(telemetry);
        std::vector<bench::RunSpec> specs;
        for (const auto &n : names)
            specs.push_back({n, cfg, scale});
        const auto results = bench::runAll(specs, jobs);
        for (const auto &r : results) {
            std::printf("%s scale=%u vt=%s: %llu cycles, IPC %.3f, "
                        "%llu warp instrs, %llu CTAs, %llu swaps, "
                        "l1 %.1f%%, l2 %.1f%%, %llu DRAM bytes — "
                        "results %s\n",
                        r.workload.c_str(), scale,
                        cfg.vtEnabled ? "on" : "off",
                        (unsigned long long)r.stats.cycles, r.stats.ipc,
                        (unsigned long long)r.stats.warpInstructions,
                        (unsigned long long)r.stats.ctasCompleted,
                        (unsigned long long)r.stats.swapOuts,
                        100 * r.stats.l1HitRate(),
                        100 * r.stats.l2HitRate(),
                        (unsigned long long)r.stats.dramBytes,
                        !shared.replayTracePath.empty()
                            ? "REPLAY"
                            : (r.verified ? "VERIFIED" : "WRONG"));
        }
        return 0;
    }

    if (!shared.replayTracePath.empty()) {
        // Trace replay: the benchmark name only labels the output row;
        // nothing executes, so there is no workload to prepare or
        // verify.
        Gpu gpu(cfg);
        if (sim_threads > 0)
            gpu.setSimThreads(sim_threads);
        if (stats_interval > 0)
            gpu.enableIntervalSampler(stats_interval, std::cerr);
        if (!trace_json_path.empty())
            gpu.enableTraceJson(trace_json_path, trace_categories);
        if (!checkpoint_path.empty())
            gpu.setCheckpoint(checkpoint_path, checkpoint_every);
        if (!restore_path.empty())
            gpu.restoreCheckpoint(restore_path);
        const KernelStats stats = gpu.replayTrace(shared.replayTracePath);
        std::printf("%s scale=%u vt=%s: %llu cycles, IPC %.3f, "
                    "%llu warp instrs, %llu CTAs, %llu swaps, "
                    "l1 %.1f%%, l2 %.1f%%, %llu DRAM bytes — "
                    "results REPLAY\n",
                    name.c_str(), scale, cfg.vtEnabled ? "on" : "off",
                    (unsigned long long)stats.cycles, stats.ipc,
                    (unsigned long long)stats.warpInstructions,
                    (unsigned long long)stats.ctasCompleted,
                    (unsigned long long)stats.swapOuts,
                    100 * stats.l1HitRate(), 100 * stats.l2HitRate(),
                    (unsigned long long)stats.dramBytes);
        if (dump_stats)
            gpu.dumpStats(std::cout);
        return 0;
    }

    auto wl = makeWorkload(name, scale);
    const Kernel kernel = wl->buildKernel();
    Gpu gpu(cfg);
    if (sim_threads > 0)
        gpu.setSimThreads(sim_threads);
    if (stats_interval > 0)
        gpu.enableIntervalSampler(stats_interval, std::cerr);
    if (!trace_json_path.empty())
        gpu.enableTraceJson(trace_json_path, trace_categories);
    if (!checkpoint_path.empty())
        gpu.setCheckpoint(checkpoint_path, checkpoint_every);
    if (!shared.recordTracePath.empty())
        gpu.enableMtraceRecord(shared.recordTracePath);
    // Restored runs resume the checkpointed launch: device memory comes
    // from the checkpoint, so prepare() must not overwrite it. It runs
    // into a scratch memory instead, so the workload still learns its
    // buffer addresses and golden outputs for the verify step.
    LaunchParams lp;
    if (restore_path.empty()) {
        lp = wl->prepare(gpu.memory());
    } else {
        GlobalMemory scratch;
        wl->prepare(scratch);
        lp = gpu.restoreCheckpoint(restore_path);
    }
    const KernelStats stats = gpu.launch(kernel, lp);
    const bool ok = wl->verify(gpu.memory());

    std::printf("%s scale=%u vt=%s: %llu cycles, IPC %.3f, "
                "%llu warp instrs, %llu CTAs, %llu swaps, "
                "l1 %.1f%%, l2 %.1f%%, %llu DRAM bytes — results %s\n",
                name.c_str(), scale, cfg.vtEnabled ? "on" : "off",
                (unsigned long long)stats.cycles, stats.ipc,
                (unsigned long long)stats.warpInstructions,
                (unsigned long long)stats.ctasCompleted,
                (unsigned long long)stats.swapOuts,
                100 * stats.l1HitRate(), 100 * stats.l2HitRate(),
                (unsigned long long)stats.dramBytes,
                ok ? "VERIFIED" : "WRONG");
    if (dump_stats)
        gpu.dumpStats(std::cout);
    return ok ? 0 : 1;
} catch (const vtsim::FatalError &e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
