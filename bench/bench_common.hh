/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: run a
 * workload on a configuration, verify its results, and format rows.
 */

#ifndef VTSIM_BENCH_BENCH_COMMON_HH
#define VTSIM_BENCH_BENCH_COMMON_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/log.hh"
#include "config/gpu_config.hh"
#include "gpu/gpu.hh"
#include "workloads/workload.hh"

namespace vtsim::bench {

/**
 * Machine-readable telemetry switches every figure/table binary accepts
 * (parsed by parseTelemetryArgs, applied process-wide before the runs):
 *   --stats-json <path>       full per-run KernelStats + sim-rate JSON
 *   --stats-interval <cycles> per-run interval JSONL series (embedded in
 *                             the stats JSON as "intervals")
 *   --trace-json <path>       per-run Perfetto trace (run N > 0 writes
 *                             <stem>.N<ext> so parallel runs never share
 *                             a file)
 *   --checkpoint <path>       per-run vtsim-ckpt-v1 checkpoint (same
 *                             <stem>.N<ext> naming as --trace-json)
 *   --checkpoint-every <n>    write the checkpoint every n cycles
 *                             instead of once at kernel end
 *   --restore <path>          restore the run from a checkpoint instead
 *                             of preparing workload inputs; the run
 *                             resumes and finishes bit-identically
 *   --sim-threads <n>         shard each run's SMs and memory
 *                             partitions across n worker threads
 *                             (docs/ARCHITECTURE.md "Sharded
 *                             simulation"); every statistic, series,
 *                             trace and checkpoint stays bit-identical
 *                             to the sequential run. Also honors the
 *                             VTSIM_SIM_THREADS environment variable
 *                             (flag wins). Malformed values are a fatal
 *                             error, like --jobs/VTSIM_JOBS.
 *   --record-trace <path>     per-run vtsim-mtrace-v1 memory-access
 *                             trace of the post-coalescer stream (same
 *                             <stem>.N<ext> naming as --trace-json).
 *                             Forces sequential simulation.
 *   --replay-trace <path>     drive the memory system from a recorded
 *                             trace instead of executing the workload;
 *                             functional results are skipped (nothing
 *                             executes), timing/cache/DRAM statistics
 *                             are bit-identical to the recording run.
 *                             Mutually exclusive with --record-trace.
 *   --profile-json <path>     per-run simulator self-profile
 *                             (vtsim-profile-v1): wall-time attribution
 *                             per simulation phase via the sampling
 *                             SimProfiler (telemetry/profiler.hh); same
 *                             <stem>.N<ext> naming as --trace-json.
 *                             KernelStats stay bit-identical with it on
 *                             and overhead is <2% (CI-enforced,
 *                             scripts/bench_profile.py).
 */
struct TelemetryOptions
{
    std::string statsJsonPath;
    Cycle statsInterval = 0;
    std::string traceJsonPath;
    /** Categories the trace records (run_benchmark's --trace). */
    std::uint32_t traceCategories = telemetry::defaultTraceCategories;
    std::string checkpointPath;
    Cycle checkpointEvery = 0;
    std::string restorePath;
    /** Shard workers per simulation; 0 = unset (sequential). */
    unsigned simThreads = 0;
    /** vtsim-mtrace-v1 output path (--record-trace); empty = off. */
    std::string recordTracePath;
    /** vtsim-mtrace-v1 input path (--replay-trace); empty = off. */
    std::string replayTracePath;
    /** vtsim-profile-v1 output path (--profile-json); empty = off. */
    std::string profileJsonPath;
};

/**
 * Strictly parse a decimal count given for @p origin (a flag or an
 * environment variable): digits only, at least @p min, and small
 * enough for T. Anything else — "banana", "-5", "", an overflow — is a
 * FatalError naming @p origin, never a silent 0 or a wrapped value.
 * Pass a @p min of 0 where 0 means "off" or "unbounded".
 */
template <typename T = std::uint64_t>
T
parseCount(const char *text, const char *origin, T min = 0)
{
    constexpr std::uint64_t max = std::numeric_limits<T>::max();
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(text, &end, 10);
    // strtoull skips leading blanks and negates a leading '-', so a
    // count must start with a digit.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || n < min || n > max) {
        VTSIM_FATAL("invalid ", origin, " value '", text,
                    "' (expected an integer from ", std::uint64_t(min),
                    " to ", max, ")");
    }
    return static_cast<T>(n);
}

/** Scan argv for the telemetry switches (unknown args are ignored).
 *  Malformed counts are a FatalError (parseCount). */
TelemetryOptions parseTelemetryArgs(int argc, char **argv);

/** Install @p opts for subsequent runWorkload calls. Not thread-safe:
 *  call before fanning out the pool. */
void setTelemetryOptions(const TelemetryOptions &opts);
const TelemetryOptions &telemetryOptions();

/** @p path with ".<index>" before the extension; bare for index 0. */
std::string indexedPath(const std::string &path, std::size_t index);

/** Result of one simulated run. */
struct RunResult
{
    std::string workload;
    KernelStats stats;
    bool verified = false;
    /** Host wall-clock seconds spent inside Gpu::launch. */
    double wallSeconds = 0.0;
    /** Deepest SIMT reconvergence stack observed on any SM. */
    std::uint32_t maxSimtDepth = 0;
    /** Interval-sampler JSONL series (empty unless --stats-interval). */
    std::string intervalSeries;
    /** Per-grid results of a concurrent run (empty for solo runs). */
    std::vector<GridStats> grids;

    /** Simulator speed: simulated kilocycles per host second. */
    double kcyclesPerSec() const
    {
        return wallSeconds > 0.0 ? stats.cycles / wallSeconds / 1e3 : 0.0;
    }

    /** Simulator speed: millions of simulated thread instructions per
     *  host second. */
    double mips() const
    {
        return wallSeconds > 0.0
                   ? stats.threadInstructions / wallSeconds / 1e6
                   : 0.0;
    }
};

/**
 * Simulate @p workload_name at @p scale on a fresh GPU with @p config.
 * The run always verifies functional results and aborts on mismatch —
 * a timing experiment on wrong answers is meaningless. @p run_index
 * names this run's slice of any per-run telemetry output files.
 */
RunResult runWorkload(const std::string &workload_name,
                      const GpuConfig &config, std::uint32_t scale = 1,
                      std::size_t run_index = 0);

/**
 * As runWorkload, but on a caller-owned @p gpu that must be freshly
 * constructed or reset() with the intended config. Lets a worker thread
 * (bench/parallel_runner.cc) reuse one Gpu arena across runs of the
 * same configuration instead of reconstructing it per run.
 */
RunResult runWorkloadOn(Gpu &gpu, const std::string &workload_name,
                        std::uint32_t scale = 1,
                        std::size_t run_index = 0);

/**
 * Launch @p workload_names concurrently on @p gpu under @p policy
 * (Gpu::launchConcurrent), verify every grid's results, and report
 * per-grid statistics in RunResult::grids. The result's workload label
 * joins the names with '+'. Grid g gets priority g (listed-first wins
 * under the preempt policy). Trace record/replay do not compose with
 * co-runs (config/sim_mode.hh).
 */
RunResult runCoRunOn(Gpu &gpu,
                     const std::vector<std::string> &workload_names,
                     SharePolicy policy, std::uint32_t scale = 1,
                     std::size_t run_index = 0);

/** Geometric mean of a vector of positive ratios. */
double geomean(const std::vector<double> &values);

/** Print a standard header naming the experiment. */
void printHeader(const std::string &experiment_id,
                 const std::string &title);

/** Default problem scale for the figure benches (see bench/README note:
 *  scale 1 keeps every figure regenerable in minutes on a laptop). */
inline constexpr std::uint32_t benchScale = 1;

} // namespace vtsim::bench

#endif // VTSIM_BENCH_BENCH_COMMON_HH
