/**
 * @file
 * Parallel experiment runner: fan independent simulations across a
 * fixed-size thread pool. Every simulation point is hermetic — its own
 * Workload, Kernel and Gpu state — so runs never share mutable state
 * and the results are bit-identical to a sequential run; only
 * wall-clock time depends on the job count. Each worker thread keeps
 * one Gpu arena and reuses it via Gpu::reset() while consecutive runs
 * share a config, which skips per-run construction without changing a
 * single statistic (the SimComponent reset() contract).
 *
 * Job-count resolution (first match wins):
 *   1. `--jobs N` / `--jobs=N` on the binary's command line,
 *   2. the `VTSIM_JOBS` environment variable,
 *   3. std::thread::hardware_concurrency().
 *
 * Composition with sharded simulation (`--sim-threads` /
 * `VTSIM_SIM_THREADS`, bench_common.hh): the two multiply — jobs
 * concurrent runs, each sharded across sim-threads workers. When the
 * product would oversubscribe hardware_concurrency(), VTSIM_JOBS
 * outranks VTSIM_SIM_THREADS: the job count is kept and the shard
 * count trimmed (with a stderr warning), because independent runs
 * scale near-linearly while epoch barriers cap intra-run speedup.
 * Either way results never change — sharding is bit-identical.
 *
 * Result rows keep their spec order regardless of completion order, so
 * figure output is deterministic. Telemetry (per-run sim rate, batch
 * wall clock) goes to stderr; stdout stays byte-stable for diffing.
 */

#ifndef VTSIM_BENCH_PARALLEL_RUNNER_HH
#define VTSIM_BENCH_PARALLEL_RUNNER_HH

#include <string>
#include <vector>

#include "bench_common.hh"

namespace vtsim::bench {

/** One simulation point of an experiment. */
struct RunSpec
{
    std::string workload;
    GpuConfig config;
    std::uint32_t scale = benchScale;
    /** Co-runners: when set (size > 1) the spec is one concurrent
     *  launch of these workloads (runCoRunOn) and `workload` is
     *  ignored. Grid g gets priority g. */
    std::vector<std::string> kernels;
    /** CTA-slot sharing policy of a co-run spec. */
    SharePolicy sharePolicy = SharePolicy::VtFill;
};

/** Resolve the worker count (see file comment); always >= 1. */
unsigned resolveJobs(int argc, char **argv);

/**
 * Simulate every spec, at most @p jobs concurrently, each worker on
 * its own Gpu arena. results[i] corresponds to specs[i]. Prints a batch
 * wall-clock /
 * sim-rate summary to stderr. The first worker exception is rethrown
 * on the calling thread after the pool drains. While the global
 * textual Trace sink is enabled (see trace.hh), the pool is forced to
 * one job — interleaved trace lines from concurrent Gpus would be
 * garbage.
 */
std::vector<RunResult> runAll(const std::vector<RunSpec> &specs,
                              unsigned jobs);

/**
 * The figure-binary entry point: parse the telemetry switches
 * (--stats-json / --stats-interval / --trace-json, see bench_common.hh)
 * and --jobs/VTSIM_JOBS from @p argv, run every spec, and write the
 * stats JSON when requested. A malformed switch prints its FatalError
 * and exits with status 1.
 */
std::vector<RunResult> runAll(const std::vector<RunSpec> &specs,
                              int argc, char **argv);

/**
 * Write the batch as "vtsim-stats-v1" JSON: a batch header (host,
 * wall_ms = @p batchWallSeconds, sim-threads/exec-mode switches and
 * the aggregate [sim-rate] numbers), then one entry per run with the
 * workload, a config digest, verification flag, sim-rate numbers, the
 * full KernelStats and the interval series (when sampled). Pass 0 for
 * @p batchWallSeconds to fall back to the sum of per-run wall times.
 */
void writeStatsJson(const std::string &path,
                    const std::vector<RunSpec> &specs,
                    const std::vector<RunResult> &results,
                    double batchWallSeconds = 0.0);

} // namespace vtsim::bench

#endif // VTSIM_BENCH_PARALLEL_RUNNER_HH
