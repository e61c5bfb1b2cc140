/**
 * @file
 * The top-level simulated GPU — the public API of vtsim. Construct one
 * with a GpuConfig, fill device memory through memory(), then launch()
 * kernels and read back results and statistics.
 *
 * The Gpu owns the central EventHorizon that drives every component's
 * SimComponent lifecycle: fast-forward jumps, deterministic reset()
 * for arena reuse, and checkpoint/restore (format vtsim-ckpt-v1, see
 * sim/serializer.hh).
 */

#ifndef VTSIM_GPU_GPU_HH
#define VTSIM_GPU_GPU_HH

#include <array>
#include <atomic>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "config/gpu_config.hh"
#include "cta/cta_dispatcher.hh"
#include "func/global_memory.hh"
#include "gpu/shard_pool.hh"
#include "gpu/stats_snapshot.hh"
#include "isa/kernel.hh"
#include "mem/interconnect.hh"
#include "mem/memory_partition.hh"
#include "mem/mtrace.hh"
#include "sim/event_horizon.hh"
#include "sm/sm_core.hh"
#include "telemetry/interval_sampler.hh"
#include "telemetry/profiler.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_json.hh"

namespace vtsim {

/** Aggregate statistics of one kernel launch. */
struct KernelStats
{
    Cycle cycles = 0;
    std::uint64_t warpInstructions = 0;
    std::uint64_t threadInstructions = 0;
    std::uint64_t ctasCompleted = 0;
    /** Warp instructions per cycle, summed over SMs. */
    double ipc = 0.0;

    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t dramBytes = 0;

    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;

    StallBreakdown stalls;

    double l1HitRate() const
    {
        const auto total = l1Hits + l1Misses;
        return total ? double(l1Hits) / total : 0.0;
    }

    double l2HitRate() const
    {
        const auto total = l2Hits + l2Misses;
        return total ? double(l2Hits) / total : 0.0;
    }
};

/** One grid of a concurrent launch (Gpu::launchConcurrent). */
struct GridLaunch
{
    const Kernel *kernel = nullptr;
    LaunchParams params;
    /** Preempt-policy rank: lower values preempt higher ones. Ignored
     *  by the other policies. */
    std::uint32_t priority = 0;
};

/** How co-resident grids share the machine. */
enum class SharePolicy : std::uint8_t
{
    /** Static SM partition: each grid owns a contiguous block of SMs
     *  and admits only there. */
    Spatial = 0,
    /** Every SM admits from the lowest-index grid with work that fits —
     *  co-runner CTAs fill VT slots the primary leaves empty. */
    VtFill = 1,
    /** Priority sharing: admission is in priority order, and at fixed
     *  boundary cycles the highest-priority unfinished grid blocks
     *  lower grids' activations and force-swaps their active CTAs out
     *  (Pai et al.-style preemptive thread-block scheduling). The
     *  eviction budget scales with the top grid's online progress
     *  estimate. Requires the VT machine (vtEnabled). */
    Preempt = 2,
};

std::string toString(SharePolicy policy);
/** Parse "spatial" / "vt-fill" / "preempt". False on anything else. */
bool parseSharePolicy(const std::string &name, SharePolicy &out);

/** Per-grid result of a concurrent launch (Gpu::gridStats). */
struct GridStats
{
    std::string kernelName;
    std::uint32_t priority = 0;
    /** This grid's share of the launch: the per-grid split counters
     *  (instructions, CTAs, cache/DRAM traffic, swaps). cycles and the
     *  stall breakdown are machine-wide, not attributed per grid. */
    KernelStats stats;
};

class Gpu
{
  public:
    explicit Gpu(const GpuConfig &config);

    /** Device global memory (allocate and fill before launching). */
    GlobalMemory &memory() { return gmem_; }

    /**
     * Launch @p kernel over @p launch and simulate to completion.
     * After restoreCheckpoint(), the same call (same kernel, the
     * returned LaunchParams) resumes the interrupted launch instead.
     * @return The launch's statistics.
     * @throws FatalError on invalid configuration or watchdog expiry.
     */
    KernelStats launch(const Kernel &kernel, const LaunchParams &launch);

    /**
     * Launch up to maxGrids kernels concurrently and simulate until
     * every grid completes. The grids co-reside on the machine under
     * @p policy; per-grid statistics land in gridStats(). With one grid
     * this is exactly launch() — bit-identical, any policy. After
     * restoreCheckpoint() of a concurrent launch, rebuild the vector
     * from restoredGrids() (plus the original kernels) to resume.
     * @return Aggregate statistics across all grids.
     */
    KernelStats launchConcurrent(const std::vector<GridLaunch> &launches,
                                 SharePolicy policy = SharePolicy::VtFill);

    /** Per-grid statistics of the last (concurrent) launch, in grid
     *  order. */
    const std::vector<GridStats> &gridStats() const { return gridStats_; }

    /**
     * After restoreCheckpoint(): the checkpointed grid table, kernel
     * pointers null. Re-attach the original kernels and pass the vector
     * to launchConcurrent (with restoredSharePolicy()) to resume.
     */
    std::vector<GridLaunch> restoredGrids() const;
    SharePolicy restoredSharePolicy() const { return sharePolicy_; }

    /**
     * Return this Gpu to its freshly-constructed state for the same
     * config: cycle 0, empty queues, zeroed statistics, cold caches,
     * empty device memory, no telemetry sinks or checkpoint cadence.
     * A subsequent run is bit-identical to one on a newly constructed
     * Gpu, so a worker thread (bench/parallel_runner.cc) can reuse one
     * arena across runs instead of reconstructing it.
     */
    void reset();

    /**
     * Write checkpoints of subsequent launches to @p path (format
     * vtsim-ckpt-v1). With @p every_n == 0, one checkpoint is written
     * when the launch completes — a validated record of the final
     * state. With @p every_n > 0, one is written (overwriting @p path)
     * each time the clock crosses a multiple of @p every_n cycles;
     * fast-forward jumps are clamped so no boundary is skipped, and
     * restoring any such mid-kernel checkpoint finishes the launch
     * bit-identically to the uninterrupted run.
     */
    void setCheckpoint(const std::string &path, Cycle every_n = 0);

    /**
     * Load a vtsim-ckpt-v1 checkpoint into this Gpu. The Gpu must be
     * freshly constructed (or reset) with the same GpuConfig, with the
     * same interval sampler enabled as the checkpointed run had (state
     * for it is in the checkpoint). Returns the original LaunchParams;
     * pass them to launch() with the original kernel to resume.
     */
    LaunchParams restoreCheckpoint(const std::string &path);

    /**
     * Serialize the machine into @p out as a complete vtsim-ckpt-v1
     * image (header plus payload, byte-identical to the file
     * setCheckpoint would write at this point). Settles lazy SM
     * windows first. The buffer form is what the job service uses to
     * park a preempted job without a caller-managed checkpoint path.
     */
    void saveCheckpoint(std::vector<std::uint8_t> &out);

    /** restoreCheckpoint() from an in-memory vtsim-ckpt-v1 image. */
    LaunchParams restoreCheckpoint(const std::vector<std::uint8_t> &image);

    /**
     * Ask the launch loop to stop at the next checkpoint-cadence
     * boundary (setCheckpoint with every_n > 0; the path may be
     * empty). Safe to call from another thread while launch() runs —
     * this is the only Gpu entry point with that property. launch()
     * then returns early with preempted() == true and statistics
     * covering the launch so far; saveCheckpoint() afterwards yields
     * an image from which a same-config Gpu resumes bit-identically.
     * Without a cadence the request holds until one is set or cleared.
     */
    void requestPreempt()
    { preemptRequested_.store(true, std::memory_order_relaxed); }

    /** Withdraw a pending requestPreempt() (between jobs: a request
     *  that raced a completing launch must not stop the next one). */
    void clearPreemptRequest()
    { preemptRequested_.store(false, std::memory_order_relaxed); }

    /** Did the last launch() stop at a preemption point instead of
     *  completing the grid? */
    bool preempted() const { return preempted_; }

    /** Invalidate all caches (between unrelated kernels). */
    void flushCaches();

    /**
     * Record the post-coalescer memory-access stream of subsequent
     * launches to @p path (format vtsim-mtrace-v1, mem/mtrace.hh).
     * Recording forces sequential simulation (the trace is one stream
     * in global cycle order) and does not compose with mid-run
     * checkpoints or preemption; the end-of-launch seal is written when
     * the grid completes.
     */
    void enableMtraceRecord(const std::string &path);

    /**
     * Replay a vtsim-mtrace-v1 trace: drive the memory hierarchy
     * (L1 → NoC → L2 → DRAM) with the recorded access stream, skipping
     * functional execution and warp scheduling entirely. The trace must
     * have been recorded under the same machine shape (SM/partition
     * counts, line sizes) as this GpuConfig. Composes with
     * setSimThreads, the interval sampler, and checkpoint/restore — a
     * checkpoint taken mid-replay resumes via replayTrace on the same
     * trace file, and a mode mismatch in either direction is a fatal
     * error. Returns the replay's statistics (cache, NoC and DRAM
     * counters are bit-identical to the recording run's; issue-side
     * counters are zero).
     */
    KernelStats replayTrace(const std::string &path);

    /**
     * Simulate subsequent launches with @p n shard workers: the SMs and
     * memory partitions are statically divided across a persistent
     * thread pool, and the run proceeds in epochs no longer than the
     * interconnect latency, synchronized at a barrier where cross-shard
     * traffic is merged in canonical sequential order. Every observable
     * output — KernelStats, interval-sampler JSONL, Perfetto traces,
     * checkpoints — is bit-identical to the single-threaded run (see
     * docs/ARCHITECTURE.md, "Sharded simulation"). 0 and 1 both mean
     * sequential. A runtime knob, not a GpuConfig field: checkpoints
     * must stay interchangeable across thread counts. Falls back to
     * sequential (with a warning) while the textual Trace facade is
     * enabled, whose process-global sink the shards would race on.
     */
    void setSimThreads(unsigned n) { simThreads_ = n; }
    unsigned simThreads() const { return simThreads_; }

    const GpuConfig &config() const { return config_; }
    std::uint32_t numSms() const { return sms_.size(); }
    SmCore &sm(std::uint32_t i) { return *sms_.at(i); }
    MemoryPartition &partition(std::uint32_t i)
    { return *partitions_.at(i); }
    Interconnect &noc() { return noc_; }

    /** Total cycles simulated across all launches. */
    Cycle totalCycles() const { return cycle_; }

    /** Cycles covered by event-horizon jumps rather than ticks (counts
     *  toward totalCycles; a measure of how much work skipping saved). */
    Cycle fastForwardedCycles() const { return horizon_.fastForwarded(); }

    /**
     * Dump every component's statistics (SMs, VT managers, L1s, L2
     * slices, DRAM channels, NoC) as `group.stat value` lines — the
     * gem5-style post-simulation record.
     */
    void dumpStats(std::ostream &os);

    /** Every stat this Gpu's components registered, by dotted path. */
    const telemetry::StatRegistry &telemetryRegistry() const
    { return registry_; }

    /**
     * Emit per-interval stat deltas as JSONL every @p interval cycles
     * of subsequent launches (see telemetry/interval_sampler.hh). The
     * stream overload keeps no ownership; the path overload opens the
     * file now. The series is identical with fastForwardEnabled on or
     * off: sample boundaries are event-horizon constraints, so jumps
     * never cross one.
     */
    void enableIntervalSampler(Cycle interval, std::ostream &os);
    void enableIntervalSampler(Cycle interval, const std::string &path);

    /**
     * Export the events of the @p categories mask (see
     * telemetry/trace_json.hh; default swap, cta, dram, barrier) as a
     * Perfetto/Chrome trace. The writer is per-Gpu: hermetic Gpus on
     * the parallel runner's thread pool can each trace to their own
     * file, and the trace is byte-identical at any setSimThreads().
     * A launch that resumes a checkpoint opens the residency span of
     * every CTA resident at the restore point.
     */
    void enableTraceJson(
        const std::string &path,
        std::uint32_t categories = telemetry::defaultTraceCategories);
    void enableTraceJson(
        std::ostream &os,
        std::uint32_t categories = telemetry::defaultTraceCategories);

    /**
     * Attribute wall time of subsequent launches to simulation phases
     * (telemetry/profiler.hh). Per-run wiring like the sampler:
     * reset() drops it. The profiler only reads the clock — enabling
     * it never changes simulated state, and KernelStats stay
     * bit-identical (tests/test_telemetry.cc asserts this).
     */
    void enableProfiler();
    const telemetry::SimProfiler *profiler() const
    { return profiler_.get(); }

  private:
    /** Test seam: tests/test_sharded_sim.cc reaches the shard-oracle
     *  internals through this to prove the oracle detects divergence. */
    friend struct GpuTestAccess;

    /** How one simulated cycle (or a fast-forward jump) left the run. */
    enum class StepResult
    {
        Running,
        Done,
        Preempted,
    };

    bool allIdle() const;
    std::uint64_t totalIssued() const;
    std::uint32_t partitionOf(Addr line_addr) const;
    void attachTraceJson();
    enum class TraceRoute { Off, Writer, Stages };
    /** Point every SM's and partition's trace pointer at traceJson_
     *  (Writer), the shard stages of a sharded run (Stages), or at
     *  nothing (Off: no writer, or the shard oracle's rerun). */
    void routeTrace(TraceRoute route);
    /** Thread count the next launch will actually use (clamped to the
     *  component count; 1 while recording a memory-access trace). */
    unsigned effectiveSimThreads() const;
    /** Any resident grid's dispatcher still has CTAs to hand out. */
    bool anyGridHasWork() const;
    /**
     * Which grid SM @p s admits from this cycle under the share policy,
     * or -1. The single admission-policy decision point: the sequential
     * loop, the sharded pause/replay sites and the shard-oracle rerun
     * all call this, so every driver admits identically.
     */
    int pickAdmitGrid(std::uint32_t s) const;
    /** Would any SM admit a CTA right now? (Fast-forward guard.) */
    bool admitPending() const;
    /** All kernel names of the resident launch, '+'-joined. */
    std::string launchName() const;
    /** CTAs of grid @p g completed across all SMs, this launch. */
    std::uint64_t gridCompleted(std::uint32_t g) const;
    /** Preempt-policy boundaries are live for this launch. */
    bool preemptActive() const
    { return grids_.size() > 1 && sharePolicy_ == SharePolicy::Preempt; }
    /** The preempt policy's boundary decision: re-block lower grids and
     *  force-swap their active CTAs where the top grid is parked. */
    void preemptBoundaryTick();
    /** Priority order of grids_ (stable on ties): priorityOrder_. */
    void rebuildPriorityOrder();
    /** One iteration of the sequential launch loop: admission, ticks,
     *  sampler/checkpoint boundaries, watchdog, fast-forward. The
     *  wrapper decides whether the self-profiler measures this cycle;
     *  @p prof tells the body to bracket its phases. */
    StepResult sequentialCycle(Cycle deadline);
    StepResult sequentialCycleBody(Cycle deadline, bool prof);
    void runSequential();
    /** The sharded epoch driver (tentpole of the --sim-threads mode). */
    void runSharded(unsigned workers);
    /** Within-cycle trace merge rank of SM @p s's tick-phase events. */
    std::uint32_t smTickRank(std::uint32_t s) const
    { return numSms() + std::uint32_t(partitions_.size()) + s; }
    /** Drain every TraceStage and replay into traceJson_ in sequential
     *  within-cycle order (cycle, rank, per-stage sequence). */
    void mergeTraceStages();
    /** Apply the epoch's logged global-memory ops in sequential order;
     *  re-reads patch any lane register that observed a stale value. */
    void replayEpochMemory();
    /** shardOracle support: per-component save() images (+ gmem). */
    std::vector<std::vector<std::uint8_t>> captureShardImages();
    void restoreShardImages(
        const std::vector<std::vector<std::uint8_t>> &images);
    std::string shardImageName(std::size_t idx) const;
    /** shardOracle: re-run [@p from, @p to) sequentially from the
     *  pre-epoch snapshot and diff every save() image. */
    void verifyShardEpoch(const std::vector<std::vector<std::uint8_t>> &pre,
                          const std::vector<std::uint64_t> &pre_dispatched,
                          Cycle from, Cycle to);
    /** Settle lazy SM windows and emit the boundary sample at cycle_. */
    void takeSample();
    /** Serialize the settled machine as a vtsim-ckpt-v1 image. */
    void buildCheckpoint(std::vector<std::uint8_t> &out);
    /** Serialize the settled machine to checkpointPath_. */
    void writeCheckpoint();
    /** Restore from a payload; @p source names it in error messages. */
    LaunchParams restoreImage(const std::uint8_t *data, std::size_t size,
                              const std::string &source);
    /** The verifyHorizon oracle: always in debug builds, opt-in via
     *  GpuConfig::horizonOracle in release builds. */
    bool oracleEnabled() const;

    GpuConfig config_;
    GlobalMemory gmem_;
    Interconnect noc_;
    std::vector<std::unique_ptr<MemoryPartition>> partitions_;
    std::vector<std::unique_ptr<SmCore>> sms_;
    EventHorizon horizon_;
    Cycle cycle_ = 0;

    /**
     * One co-resident grid of the active launch. Launch context lives
     * in members (not launch() locals) so checkpoints can carry an
     * interrupted launch across processes; the kernel pointer is the
     * one live binding a checkpoint cannot carry (the identity fields
     * re-validate it on resume).
     */
    struct GridContext
    {
        const Kernel *kernel = nullptr;
        LaunchParams params;
        std::uint32_t priority = 0;
        std::string kernelName;
        std::uint64_t kernelInstrs = 0;
        std::uint32_t kernelRegs = 0;
        std::uint32_t kernelShared = 0;
        std::unique_ptr<CtaDispatcher> dispatcher;
    };

    /** Cycles between preempt-policy boundary decisions. */
    static constexpr Cycle preemptBoundaryCycles_ = 2048;

    std::vector<GridContext> grids_;
    SharePolicy sharePolicy_ = SharePolicy::VtFill;
    /** Grid indices, highest priority (lowest value) first. */
    std::vector<std::uint32_t> priorityOrder_;
    /** Per-grid CTA completions at launch start (counters are
     *  cumulative across launches) and at the last preempt boundary
     *  (the online progress estimate's reference point). */
    std::array<std::uint64_t, maxGrids> gridBase_{};
    std::array<std::uint64_t, maxGrids> lastBoundaryCompleted_{};
    std::vector<GridStats> gridStats_;
    StatsSnapshot before_;
    Cycle launchStart_ = 0;
    bool pendingResume_ = false;

    std::string checkpointPath_;
    Cycle checkpointEvery_ = 0;

    /** Which driver owns the machine: functional execution or trace
     *  replay. Checkpointed (in "gpux") so a restored image can only be
     *  resumed by the matching entry point. */
    enum class SimMode : std::uint8_t
    {
        Functional = 0,
        Replay = 1,
    };
    SimMode simMode_ = SimMode::Functional;
    std::string recordTracePath_;
    std::unique_ptr<MtraceWriter> mtraceWriter_;
    std::unique_ptr<MtraceReader> mtraceReader_;

    // Preemption handshake with the job service (src/service/): the
    // request flag is the one member another thread may touch while
    // launch() runs.
    std::atomic<bool> preemptRequested_{false};
    bool preempted_ = false;

    telemetry::StatRegistry registry_;
    std::unique_ptr<std::ofstream> samplerFile_;
    std::unique_ptr<telemetry::IntervalSampler> sampler_;
    std::unique_ptr<telemetry::TraceJsonWriter> traceJson_;
    std::unique_ptr<telemetry::SimProfiler> profiler_;

    // Sharded-simulation state (setSimThreads). The pool persists across
    // launches; the stages exist only while a sharded launch is running
    // (routeTrace points components at them for its duration and back
    // at traceJson_ afterwards).
    unsigned simThreads_ = 1;
    std::unique_ptr<ShardPool> pool_;
    std::vector<std::unique_ptr<telemetry::TraceStage>> smStages_;
    std::vector<std::unique_ptr<telemetry::TraceStage>> partStages_;
};

} // namespace vtsim

#endif // VTSIM_GPU_GPU_HH
