/**
 * @file
 * Job model of the vtsim simulation-job service: what a client submits
 * (JobSpec), how far it has gotten (JobState), and what the service
 * reports back (JobSnapshot).
 *
 * A job is one workload simulation — the same unit bench_common's
 * runWorkload runs in-process — lifted into a queued, prioritized,
 * preemptible service request. Jobs beyond the worker count stay
 * admitted with their bulky state parked on disk as a vtsim-ckpt-v1
 * image and only the cheap scheduling context (this record) resident,
 * mirroring the paper's virtual-thread trick at the service level.
 */

#ifndef VTSIM_SERVICE_JOB_HH
#define VTSIM_SERVICE_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/gpu_config.hh"
#include "gpu/gpu.hh"

namespace vtsim::service {

using JobId = std::uint64_t;

/** Scheduling class; higher runs first and may preempt lower. */
enum class Priority : std::uint8_t { Low = 0, Normal = 1, High = 2 };

std::string toString(Priority p);

/** What to simulate — the submit request's payload. */
struct JobSpec
{
    std::string workload;
    std::uint32_t scale = 1;
    GpuConfig config = GpuConfig::fermiLike();
    /** Interval-sampler cadence (0 = no interval series). */
    Cycle statsInterval = 0;
    /**
     * Preemption/checkpoint cadence in cycles; 0 takes the service
     * default. Preemption, crash recovery and parking all happen at
     * these boundaries only.
     */
    Cycle checkpointEvery = 0;
    /**
     * Test hook: the first @p injectFail attempts of this job throw a
     * deliberate failure at their first cadence boundary (after a
     * checkpoint image was parked, when the cadence allows one), to
     * exercise the retry-from-checkpoint path deterministically.
     */
    std::uint32_t injectFail = 0;
    /**
     * Shard this job's simulation across this many worker threads
     * (docs/ARCHITECTURE.md "Sharded simulation"); 0 and 1 both mean
     * sequential. Results, series and parked checkpoint images are
     * bit-identical either way — a preempted sharded job may resume
     * sequentially and vice versa. Bounded at submit by the service's
     * maxSimThreads; larger requests are rejected, not clamped.
     */
    unsigned simThreads = 0;
    /**
     * Write a vtsim-mtrace-v1 memory-access trace of this job's run to
     * this path (empty = no trace). A recording job opts out of the
     * preemption/checkpoint cadence (recording does not compose with
     * mid-run checkpoints) and always simulates sequentially.
     */
    std::string recordTrace;
    /**
     * Co-resident workloads of a concurrent job: grid g runs
     * kernels[g] (submit's `kernels: [...]`). Empty = the classic
     * single-kernel job running `workload`; when set, `workload`
     * mirrors kernels[0] for display. Bounded by maxGrids; recording
     * does not compose with co-runs (config/sim_mode.hh).
     */
    std::vector<std::string> kernels;
    /** CTA-slot sharing policy of a multi-kernel job (`share_policy`). */
    SharePolicy sharePolicy = SharePolicy::VtFill;

    /** The resolved grid list: kernels, or {workload} when empty. */
    std::vector<std::string>
    gridWorkloads() const
    {
        return kernels.empty() ? std::vector<std::string>{workload}
                               : kernels;
    }
};

enum class JobState : std::uint8_t
{
    Queued,   ///< Admitted, waiting for a worker.
    Running,  ///< On a worker right now.
    Parked,   ///< Preempted; state on disk, waiting to resume.
    Done,      ///< Completed with verified results.
    Failed,    ///< Exhausted its retry; see failureReason.
    Cancelled  ///< Removed from the queue before running to completion.
};

std::string toString(JobState s);

/** Point-in-time view of a job, returned by wait/query. */
struct JobSnapshot
{
    JobId id = 0;
    JobState state = JobState::Queued;
    Priority priority = Priority::Normal;
    std::string workload;
    std::uint32_t scale = 1;
    /** Effective shard-thread request (JobSpec::simThreads). */
    unsigned simThreads = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t retries = 0;
    /** Seconds between admission and first start. */
    double waitSeconds = 0.0;
    /** Host seconds on a worker, summed over slices. */
    double wallSeconds = 0.0;
    std::string failureReason;

    // Valid when state == Done.
    KernelStats stats;
    bool verified = false;
    std::uint32_t maxSimtDepth = 0;
    std::string intervalSeries;
    /** Per-grid results of a multi-kernel job (Gpu::gridStats). */
    std::vector<GridStats> grids;

    bool
    terminal() const
    {
        return state == JobState::Done || state == JobState::Failed ||
               state == JobState::Cancelled;
    }
};

} // namespace vtsim::service

#endif // VTSIM_SERVICE_JOB_HH
