#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>

#include "common/log.hh"
#include "config/sim_mode.hh"
#include "service/json.hh"
#include "telemetry/profiler.hh"

namespace vtsim::bench {

namespace {

TelemetryOptions g_telemetry;

/**
 * The vtsim-profile-v1 document: where @p result's wall time went, per
 * simulation phase, as attributed by the run's SimProfiler.
 */
void
writeProfileJson(const std::string &path, const Gpu &gpu,
                 const std::string &workload_name,
                 const RunResult &result)
{
    const telemetry::SimProfiler *prof = gpu.profiler();
    if (!prof)
        return;
    using service::Json;
    Json::Array buckets;
    for (const auto &b : prof->report()) {
        Json::Object o;
        o["name"] = Json(b.name);
        o["seconds"] = Json(b.seconds);
        o["measured_ns"] = Json(b.measuredNs);
        o["calls"] = Json(b.calls);
        o["sampled"] = Json(b.sampled);
        buckets.push_back(Json(std::move(o)));
    }
    const double run_s = prof->runSeconds();
    const double attributed = prof->attributedSeconds();
    Json::Object doc;
    doc["schema"] = Json("vtsim-profile-v1");
    doc["workload"] = Json(workload_name);
    doc["cycles"] = Json(result.stats.cycles);
    doc["wall_seconds"] = Json(result.wallSeconds);
    doc["run_seconds"] = Json(run_s);
    doc["attributed_seconds"] = Json(attributed);
    doc["attributed_fraction"] =
        Json(run_s > 0.0 ? attributed / run_s : 0.0);
    doc["clock_cost_ns"] = Json(prof->clockCostNs());
    doc["executed_cycles"] = Json(prof->executedCycles());
    doc["sampled_cycles"] = Json(prof->sampledCycles());
    doc["executed_epochs"] = Json(prof->executedEpochs());
    doc["sampled_epochs"] = Json(prof->sampledEpochs());
    doc["buckets"] = Json(std::move(buckets));
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        VTSIM_FATAL("cannot open profile-json file '", path, "'");
    os << Json(std::move(doc)).dump() << '\n';
}

} // namespace

TelemetryOptions
parseTelemetryArgs(int argc, char **argv)
{
    TelemetryOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--stats-json" && i + 1 < argc)
            opts.statsJsonPath = argv[++i];
        else if (arg.substr(0, 13) == "--stats-json=")
            opts.statsJsonPath = argv[i] + 13;
        else if (arg == "--stats-interval" && i + 1 < argc)
            opts.statsInterval = parseCount(argv[++i], "--stats-interval");
        else if (arg.substr(0, 17) == "--stats-interval=")
            opts.statsInterval =
                parseCount(argv[i] + 17, "--stats-interval");
        else if (arg == "--trace-json" && i + 1 < argc)
            opts.traceJsonPath = argv[++i];
        else if (arg.substr(0, 13) == "--trace-json=")
            opts.traceJsonPath = argv[i] + 13;
        else if (arg == "--checkpoint" && i + 1 < argc)
            opts.checkpointPath = argv[++i];
        else if (arg.substr(0, 13) == "--checkpoint=")
            opts.checkpointPath = argv[i] + 13;
        else if (arg == "--checkpoint-every" && i + 1 < argc)
            opts.checkpointEvery =
                parseCount(argv[++i], "--checkpoint-every");
        else if (arg.substr(0, 19) == "--checkpoint-every=")
            opts.checkpointEvery =
                parseCount(argv[i] + 19, "--checkpoint-every");
        else if (arg == "--restore" && i + 1 < argc)
            opts.restorePath = argv[++i];
        else if (arg.substr(0, 10) == "--restore=")
            opts.restorePath = argv[i] + 10;
        else if (arg == "--sim-threads" && i + 1 < argc)
            opts.simThreads =
                parseCount<unsigned>(argv[++i], "--sim-threads", 1);
        else if (arg.substr(0, 14) == "--sim-threads=")
            opts.simThreads =
                parseCount<unsigned>(argv[i] + 14, "--sim-threads", 1);
        else if (arg == "--record-trace" && i + 1 < argc)
            opts.recordTracePath = argv[++i];
        else if (arg.substr(0, 15) == "--record-trace=")
            opts.recordTracePath = argv[i] + 15;
        else if (arg == "--replay-trace" && i + 1 < argc)
            opts.replayTracePath = argv[++i];
        else if (arg.substr(0, 15) == "--replay-trace=")
            opts.replayTracePath = argv[i] + 15;
        else if (arg == "--profile-json" && i + 1 < argc)
            opts.profileJsonPath = argv[++i];
        else if (arg.substr(0, 15) == "--profile-json=")
            opts.profileJsonPath = argv[i] + 15;
    }
    SimModeSpec mode;
    mode.recordTrace = !opts.recordTracePath.empty();
    mode.replayTrace = !opts.replayTracePath.empty();
    mode.restore = !opts.restorePath.empty();
    mode.checkpointEvery = opts.checkpointEvery;
    requireValidSimMode(mode);
    if (opts.simThreads == 0) {
        if (const char *env = std::getenv("VTSIM_SIM_THREADS"))
            opts.simThreads =
                parseCount<unsigned>(env, "VTSIM_SIM_THREADS", 1);
    }
    return opts;
}

void
setTelemetryOptions(const TelemetryOptions &opts)
{
    g_telemetry = opts;
}

const TelemetryOptions &
telemetryOptions()
{
    return g_telemetry;
}

std::string
indexedPath(const std::string &path, std::size_t index)
{
    if (index == 0)
        return path;
    const auto dot = path.rfind('.');
    const auto slash = path.rfind('/');
    const bool has_ext =
        dot != std::string::npos &&
        (slash == std::string::npos || dot > slash);
    const std::string suffix = "." + std::to_string(index);
    if (!has_ext)
        return path + suffix;
    return path.substr(0, dot) + suffix + path.substr(dot);
}

RunResult
runWorkload(const std::string &workload_name, const GpuConfig &config,
            std::uint32_t scale, std::size_t run_index)
{
    Gpu gpu(config);
    return runWorkloadOn(gpu, workload_name, scale, run_index);
}

RunResult
runWorkloadOn(Gpu &gpu, const std::string &workload_name,
              std::uint32_t scale, std::size_t run_index)
{
    RunResult result;
    result.workload = workload_name;
    // Gpu::reset() (arena reuse) falls back to sequential, so the shard
    // count must be re-applied per run; 0 leaves the default alone.
    if (g_telemetry.simThreads > 0)
        gpu.setSimThreads(g_telemetry.simThreads);
    std::ostringstream interval_series;
    if (g_telemetry.statsInterval > 0)
        gpu.enableIntervalSampler(g_telemetry.statsInterval,
                                  interval_series);
    if (!g_telemetry.traceJsonPath.empty())
        gpu.enableTraceJson(indexedPath(g_telemetry.traceJsonPath,
                                        run_index));
    if (!g_telemetry.checkpointPath.empty())
        gpu.setCheckpoint(indexedPath(g_telemetry.checkpointPath,
                                      run_index),
                          g_telemetry.checkpointEvery);
    if (!g_telemetry.profileJsonPath.empty())
        gpu.enableProfiler();

    if (!g_telemetry.replayTracePath.empty()) {
        // Trace replay drives the memory system from the recorded
        // stream: the workload never prepares inputs or executes, so
        // there is nothing to verify — only timing/cache/DRAM counters.
        if (!g_telemetry.restorePath.empty())
            gpu.restoreCheckpoint(indexedPath(g_telemetry.restorePath,
                                              run_index));
        const auto start = std::chrono::steady_clock::now();
        result.stats = gpu.replayTrace(
            indexedPath(g_telemetry.replayTracePath, run_index));
        result.wallSeconds = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count();
        result.intervalSeries = interval_series.str();
        result.verified = false;
        std::fprintf(stderr,
                     "[sim-rate] %-14s wall %8.3fs %10.1f Kcyc/s"
                     " (replay)\n",
                     workload_name.c_str(), result.wallSeconds,
                     result.kcyclesPerSec());
        if (!g_telemetry.profileJsonPath.empty())
            writeProfileJson(indexedPath(g_telemetry.profileJsonPath,
                                         run_index),
                             gpu, workload_name, result);
        return result;
    }

    auto workload = makeWorkload(workload_name, scale);
    const Kernel kernel = workload->buildKernel();

    if (!g_telemetry.recordTracePath.empty())
        gpu.enableMtraceRecord(indexedPath(g_telemetry.recordTracePath,
                                           run_index));
    LaunchParams lp;
    if (!g_telemetry.restorePath.empty()) {
        // Machine state and device memory come from the checkpoint, so
        // prepare() runs into a scratch memory instead: the workload
        // still records its buffer addresses and golden outputs for
        // verify() (the deterministic bump allocator reproduces the
        // checkpointed run's addresses), but the restored device
        // contents stay untouched.
        GlobalMemory scratch;
        workload->prepare(scratch);
        lp = gpu.restoreCheckpoint(indexedPath(g_telemetry.restorePath,
                                               run_index));
    } else {
        lp = workload->prepare(gpu.memory());
    }
    const auto start = std::chrono::steady_clock::now();
    result.stats = gpu.launch(kernel, lp);
    result.wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        result.maxSimtDepth =
            std::max(result.maxSimtDepth, gpu.sm(i).maxSimtDepthSeen());
    }
    result.intervalSeries = interval_series.str();
    // Simulator-speed row (stderr: stdout stays byte-stable across
    // hosts so figure output remains diffable).
    std::fprintf(stderr,
                 "[sim-rate] %-14s wall %8.3fs %10.1f Kcyc/s %8.2f MIPS\n",
                 workload_name.c_str(), result.wallSeconds,
                 result.kcyclesPerSec(), result.mips());
    result.verified = workload->verify(gpu.memory());
    if (!result.verified) {
        VTSIM_FATAL("workload '", workload_name,
                    "' produced wrong results — timing numbers void");
    }
    if (!g_telemetry.profileJsonPath.empty())
        writeProfileJson(indexedPath(g_telemetry.profileJsonPath,
                                     run_index),
                         gpu, workload_name, result);
    return result;
}

RunResult
runCoRunOn(Gpu &gpu, const std::vector<std::string> &workload_names,
           SharePolicy policy, std::uint32_t scale,
           std::size_t run_index)
{
    {
        SimModeSpec mode;
        mode.recordTrace = !g_telemetry.recordTracePath.empty();
        mode.replayTrace = !g_telemetry.replayTracePath.empty();
        mode.restore = !g_telemetry.restorePath.empty();
        mode.checkpointEvery = g_telemetry.checkpointEvery;
        mode.numGrids = workload_names.size();
        mode.preemptPolicy = policy == SharePolicy::Preempt;
        mode.vtEnabled = gpu.config().vtEnabled;
        requireValidSimMode(mode);
    }
    RunResult result;
    for (const std::string &name : workload_names)
        result.workload += (result.workload.empty() ? "" : "+") + name;
    if (g_telemetry.simThreads > 0)
        gpu.setSimThreads(g_telemetry.simThreads);
    std::ostringstream interval_series;
    if (g_telemetry.statsInterval > 0)
        gpu.enableIntervalSampler(g_telemetry.statsInterval,
                                  interval_series);
    if (!g_telemetry.traceJsonPath.empty())
        gpu.enableTraceJson(indexedPath(g_telemetry.traceJsonPath,
                                        run_index));
    if (!g_telemetry.checkpointPath.empty())
        gpu.setCheckpoint(indexedPath(g_telemetry.checkpointPath,
                                      run_index),
                          g_telemetry.checkpointEvery);
    if (!g_telemetry.profileJsonPath.empty())
        gpu.enableProfiler();

    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<Kernel> kernels;
    for (const std::string &name : workload_names) {
        workloads.push_back(makeWorkload(name, scale));
        kernels.push_back(workloads.back()->buildKernel());
    }
    std::vector<GridLaunch> launches;
    for (std::size_t g = 0; g < workloads.size(); ++g) {
        GridLaunch gl;
        gl.kernel = &kernels[g];
        gl.params = workloads[g]->prepare(gpu.memory());
        gl.priority = std::uint32_t(g);
        launches.push_back(std::move(gl));
    }
    const auto start = std::chrono::steady_clock::now();
    result.stats = gpu.launchConcurrent(launches, policy);
    result.wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    result.grids = gpu.gridStats();
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        result.maxSimtDepth =
            std::max(result.maxSimtDepth, gpu.sm(i).maxSimtDepthSeen());
    }
    result.intervalSeries = interval_series.str();
    std::fprintf(stderr,
                 "[sim-rate] %-14s wall %8.3fs %10.1f Kcyc/s %8.2f MIPS"
                 " (%s)\n",
                 result.workload.c_str(), result.wallSeconds,
                 result.kcyclesPerSec(), result.mips(),
                 toString(policy).c_str());
    result.verified = true;
    for (std::size_t g = 0; g < workloads.size(); ++g) {
        if (!workloads[g]->verify(gpu.memory())) {
            result.verified = false;
            VTSIM_FATAL("workload '", workload_names[g],
                        "' produced wrong results under the ",
                        toString(policy),
                        " co-run — timing numbers void");
        }
    }
    if (!g_telemetry.profileJsonPath.empty())
        writeProfileJson(indexedPath(g_telemetry.profileJsonPath,
                                     run_index),
                         gpu, result.workload, result);
    return result;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / values.size());
}

void
printHeader(const std::string &experiment_id, const std::string &title)
{
    std::printf("==== %s: %s ====\n", experiment_id.c_str(),
                title.c_str());
}

} // namespace vtsim::bench
