/**
 * @file
 * The execution-mode compatibility matrix. A run combines several
 * orthogonal switches — trace record/replay, mid-run checkpoints,
 * sharded simulation, and (since concurrent launches) multi-grid
 * co-runs — and not every combination is meaningful. The rules used
 * to live as ad-hoc fatals scattered over run_benchmark, the bench
 * binaries, the job service and Gpu itself; this header is the one
 * place they are stated, and validateSimMode the one error path that
 * reports a violation.
 *
 * One switch interaction is deliberately NOT an error but a documented
 * fallback: trace recording forces sequential simulation, so combining
 * it with --sim-threads > 1 runs sequentially, with a warning
 * (Gpu::effectiveSimThreads).
 */

#ifndef VTSIM_CONFIG_SIM_MODE_HH
#define VTSIM_CONFIG_SIM_MODE_HH

#include <cstddef>
#include <string>

#include "common/types.hh"

namespace vtsim {

/** The mode-relevant switches of one run, normalized to booleans and
 *  counts so callers at every layer (CLI front ends, the job service,
 *  Gpu::launchConcurrent) can describe themselves the same way. */
struct SimModeSpec
{
    /** --record-trace: write a vtsim-mtrace-v1 access trace. */
    bool recordTrace = false;
    /** --replay-trace: drive memory from a recorded trace. */
    bool replayTrace = false;
    /** --restore: the run resumes a restored checkpoint. */
    bool restore = false;
    /** --checkpoint-every cadence (mid-run checkpoints / preemption). */
    Cycle checkpointEvery = 0;
    /** Grids in the launch; > 1 means a concurrent co-run. */
    std::size_t numGrids = 1;
    /** Co-run uses SharePolicy::Preempt. */
    bool preemptPolicy = false;
    /** The machine has Virtual Thread enabled (GpuConfig::vtEnabled). */
    bool vtEnabled = false;
};

/**
 * Check @p spec against the matrix.
 * @return The canonical error message of the first violated rule, or
 *         an empty string when the combination is valid.
 */
std::string validateSimMode(const SimModeSpec &spec);

/** validateSimMode, but a violation is a FatalError. */
void requireValidSimMode(const SimModeSpec &spec);

} // namespace vtsim

#endif // VTSIM_CONFIG_SIM_MODE_HH
