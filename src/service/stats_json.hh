/**
 * @file
 * The "vtsim-stats-v1" JSON writer, shared by the figure binaries'
 * batch runner (bench/parallel_runner.cc delegates here) and the job
 * service (vtsimd --stats-json). One RunRecord per simulated run; the
 * service adds an optional top-level "service" object with its
 * scheduler telemetry. Validated in CI against ci/stats_schema.json by
 * scripts/validate_stats_json.py.
 */

#ifndef VTSIM_SERVICE_STATS_JSON_HH
#define VTSIM_SERVICE_STATS_JSON_HH

#include <ostream>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "gpu/gpu.hh"
#include "service/json.hh"

namespace vtsim::service {

/** One simulated run, as the stats JSON reports it. */
struct RunRecord
{
    std::string workload;
    std::uint32_t scale = 1;
    GpuConfig config;
    bool verified = false;
    /** Host wall-clock seconds spent simulating. */
    double wallSeconds = 0.0;
    std::uint32_t maxSimtDepth = 0;
    KernelStats stats;
    /** Interval-sampler JSONL series (empty unless sampled). */
    std::string intervalSeries;
    /** Per-grid results of a concurrent run (empty for solo runs);
     *  written as the optional "grids" array. */
    std::vector<GridStats> grids;
    /** Sharing policy of a concurrent run ("spatial" | "vt-fill" |
     *  "preempt"); empty for solo runs and omitted from the JSON. */
    std::string sharePolicy;

    double
    kcyclesPerSec() const
    {
        return wallSeconds > 0.0 ? stats.cycles / wallSeconds / 1e3 : 0.0;
    }

    double
    mips() const
    {
        return wallSeconds > 0.0
                   ? stats.threadInstructions / wallSeconds / 1e6
                   : 0.0;
    }
};

/** Shortest round-trippable decimal form of @p v. */
std::string jsonDouble(double v);

/**
 * Batch-level header metadata (vtsim-stats-v1 since the observability
 * PR): which host produced the document, how long the whole batch
 * took, and the batch-aggregate simulation rate — the same numbers the
 * [sim-rate]/[parallel-runner] stderr lines report, now machine-
 * readable.
 */
struct BatchMeta
{
    /** Producing host; empty = filled via gethostname() at write. */
    std::string host;
    /** Whole-batch wall time (parallel runs overlap, so this is not
     *  the sum of per-run wall_seconds). */
    double wallMs = 0.0;
    /** Per-run shard threads (--sim-threads); 0 = sequential. */
    unsigned simThreads = 0;
    /** Batch simulated kilocycles per host-second. */
    double kcyclesPerSec = 0.0;
    /** Batch millions of thread instructions per host-second. */
    double mips = 0.0;
};

/**
 * Write the whole document: schema tag, the batch header (@p meta),
 * the optional @p service section (pass nullptr for plain batch
 * output), the optional @p fabric section (the coordinator's fleet
 * telemetry; vtsim-coord --stats-json), then one entry per run in
 * order.
 */
void writeStatsJson(std::ostream &os,
                    const std::vector<RunRecord> &runs,
                    const Json *service, const BatchMeta &meta,
                    const Json *fabric = nullptr);

} // namespace vtsim::service

#endif // VTSIM_SERVICE_STATS_JSON_HH
