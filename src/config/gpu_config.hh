/**
 * @file
 * Top-level configuration of the simulated GPU, including the Virtual
 * Thread knobs. Mirrors the configuration table of the paper (TAB-1).
 */

#ifndef VTSIM_CONFIG_GPU_CONFIG_HH
#define VTSIM_CONFIG_GPU_CONFIG_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>

#include "common/types.hh"

namespace vtsim {

/** Warp scheduler selection policy. */
enum class SchedulerPolicy
{
    LooseRoundRobin,  ///< LRR: rotate through ready warps.
    GreedyThenOldest, ///< GTO: stick with one warp until it stalls.
    TwoLevel,         ///< Small active set with pending pool behind it.
};

/** Returns a short name, e.g. "gto". */
std::string toString(SchedulerPolicy policy);

/** CTA swap-out trigger used by the Virtual Thread manager. */
enum class VtSwapTrigger
{
    /** Paper policy: swap when ALL warps of the CTA are blocked and at
     *  least one waits on a long-latency memory dependence. */
    AllWarpsStalled,
    /** Ablation: swap as soon as ANY warp blocks on long latency. */
    AnyWarpStalled,
};

/** Which inactive CTA is brought in on a swap. */
enum class VtSwapInPolicy
{
    ReadyFirst,  ///< Paper policy: prefer CTAs whose loads returned.
    OldestFirst, ///< Ablation: strict age order regardless of readiness.
};

std::string toString(VtSwapTrigger trigger);
std::string toString(VtSwapInPolicy policy);

/**
 * All architectural parameters of the simulated GPU.
 *
 * Defaults (and fermiLike()) model a GTX480-class part, the baseline class
 * the paper evaluates on. Latencies are in core cycles; a single clock
 * domain is modelled.
 */
struct GpuConfig
{
    // --- Chip-level shape ----------------------------------------------
    std::uint32_t numSms = 15;           ///< Streaming multiprocessors.
    std::uint32_t numMemPartitions = 6;  ///< L2 slices + DRAM channels.

    // --- Per-SM scheduling limit (the structures VT virtualises) --------
    std::uint32_t maxWarpsPerSm = 48;    ///< Hardware warp slots.
    std::uint32_t maxCtasPerSm = 8;      ///< Hardware CTA slots.
    std::uint32_t maxThreadsPerSm = 1536;///< Thread slots.

    // --- Per-SM capacity limit (stays fixed under VT) --------------------
    std::uint32_t registersPerSm = 32768;    ///< 32-bit registers (128 KB).
    std::uint32_t sharedMemPerSm = 48 * 1024;///< Bytes of shared memory.
    std::uint32_t sharedMemBanks = 32;
    std::uint32_t regAllocGranularity = 64;  ///< Regs rounded per warp.
    std::uint32_t sharedAllocGranularity = 128; ///< Bytes rounded per CTA.

    // --- SM pipeline -----------------------------------------------------
    std::uint32_t numSchedulers = 2;     ///< Warp schedulers per SM.
    std::uint32_t issueWidth = 1;        ///< Instructions per scheduler/cyc.
    SchedulerPolicy schedulerPolicy = SchedulerPolicy::GreedyThenOldest;
    std::uint32_t aluLatency = 4;        ///< Simple int/fp ALU result lat.
    std::uint32_t sfuLatency = 16;       ///< Transcendental / div latency.
    std::uint32_t aluThroughputPerSm = 2;///< ALU instrs accepted per cycle.
    std::uint32_t sfuThroughputPerSm = 1;
    std::uint32_t ldstThroughputPerSm = 1; ///< Mem instrs accepted / cycle.

    // --- L1 data cache (per SM) -----------------------------------------
    std::uint32_t l1Size = 16 * 1024;
    std::uint32_t l1Assoc = 4;
    std::uint32_t l1LineSize = 128;
    std::uint32_t l1Mshrs = 128;         ///< Distinct outstanding lines.
    std::uint32_t l1MshrTargets = 8;     ///< Merged requests per line.
    std::uint32_t l1HitLatency = 40;     ///< Load-to-use on an L1 hit.
    /** Route every global load around the L1 (Kepler-style policy);
     *  individual ldg.cg instructions bypass regardless. */
    bool l1BypassGlobalLoads = false;

    // --- Shared memory ----------------------------------------------------
    std::uint32_t sharedMemLatency = 26; ///< Conflict-free access latency.

    // --- Interconnect -----------------------------------------------------
    std::uint32_t nocLatency = 40;       ///< SM <-> partition, each way.
    std::uint32_t nocFlitsPerCycle = 2;  ///< Requests accepted per cycle.

    // --- L2 (per partition) ----------------------------------------------
    std::uint32_t l2SlicePerPartition = 128 * 1024;
    std::uint32_t l2Assoc = 8;
    std::uint32_t l2LineSize = 128;
    std::uint32_t l2Mshrs = 128;
    std::uint32_t l2MshrTargets = 8;
    std::uint32_t l2HitLatency = 120;    ///< Additional cycles on L2 hit.
    std::uint32_t l2PortsPerCycle = 2;   ///< Requests serviced per cycle.
    /** Write-back (write-allocate, no-fetch) L2, as on Fermi. Setting
     *  this false models a write-through/no-allocate L2 (EXT-5). */
    bool l2WriteBack = true;

    // --- DRAM (per partition) ---------------------------------------------
    std::uint32_t dramBanksPerPartition = 8;
    std::uint32_t dramRowBufferSize = 2048;  ///< Bytes per open row.
    std::uint32_t dramRowHitLatency = 200;
    std::uint32_t dramRowMissLatency = 350;
    std::uint32_t dramBytesPerCycle = 32;    ///< Data bus bandwidth.
    /** FR-FCFS reorder window; 1 degenerates to FCFS (EXT-6). */
    std::uint32_t dramSchedWindow = 32;

    // --- Virtual Thread (the paper's mechanism) ---------------------------
    bool vtEnabled = false;
    /** Upper bound on resident (active + inactive) CTAs per SM. The
     *  capacity limit still applies on top of this. 0 means "no extra
     *  bound beyond capacity". */
    std::uint32_t vtMaxVirtualCtasPerSm = 16;
    std::uint32_t vtSwapOutLatency = 10; ///< Cycles to save sched state.
    std::uint32_t vtSwapInLatency = 10;  ///< Cycles to restore sched state.
    VtSwapTrigger vtSwapTrigger = VtSwapTrigger::AllWarpsStalled;
    VtSwapInPolicy vtSwapInPolicy = VtSwapInPolicy::ReadyFirst;
    /** Minimum consecutive fully-stalled cycles before a swap fires;
     *  hysteresis against thrashing on short stalls. */
    std::uint32_t vtStallThreshold = 4;

    /**
     * Idealised comparison machine (FIG-6): multiply the scheduling limit
     * by this factor for free, leaving VT off. 1 = normal baseline.
     */
    std::uint32_t schedLimitMultiplier = 1;

    // --- DYNCTA-style CTA throttling (related-work comparator) -----------
    bool throttleEnabled = false;        ///< Mutually exclusive with VT.
    std::uint32_t throttleEpochCycles = 2048;
    double throttleHighWater = 0.55;     ///< Shrink cap above this.
    double throttleLowWater = 0.30;      ///< Grow cap below this.

    // --- Bookkeeping -------------------------------------------------------
    std::uint64_t maxCycles = 50'000'000; ///< Watchdog for runaway sims.

    /**
     * Event-horizon fast-forward: when no component can make progress,
     * jump the clock to the earliest next event instead of ticking empty
     * cycles. Pure simulator-speed optimisation — every statistic is
     * bit-identical with it on or off.
     */
    bool fastForwardEnabled = true;

    /**
     * Cross-check the issue path's ready bits, Active-CTA age order and
     * stall counters against a full warp scan every busy cycle
     * (expensive; always on in assert-enabled builds, this flag forces it
     * in release builds — used by the ready-set property tests).
     */
    bool readySetOracle = false;

    /**
     * Cross-check the central EventHorizon on every fast-forward jump:
     * recompute each component's next event without caches and assert
     * none precedes the horizon (always on in assert-enabled builds;
     * this flag forces it in release builds — used by the lifecycle
     * property tests).
     */
    bool horizonOracle = false;

    /**
     * Cross-check every sharded-simulation epoch (Gpu::setSimThreads
     * with more than one thread) against a sequential re-execution:
     * snapshot the machine before the epoch, re-run the same cycle
     * window single-threaded, and diff every component's save() image
     * to localize any divergence (very expensive — test use only).
     */
    bool shardOracle = false;

    /** GTX480-class baseline used throughout the evaluation. */
    static GpuConfig fermiLike();

    /** Larger, Kepler-class variant (64 warps / 16 CTA slots per SM). */
    static GpuConfig keplerLike();

    /** Single-SM miniature for unit tests: tiny but structurally equal. */
    static GpuConfig testMini();

    /** Effective per-SM warp slots after schedLimitMultiplier. */
    std::uint32_t effMaxWarpsPerSm() const
    { return maxWarpsPerSm * schedLimitMultiplier; }

    /** Effective per-SM CTA slots after schedLimitMultiplier. */
    std::uint32_t effMaxCtasPerSm() const
    { return maxCtasPerSm * schedLimitMultiplier; }

    /** Effective per-SM thread slots after schedLimitMultiplier. */
    std::uint32_t effMaxThreadsPerSm() const
    { return maxThreadsPerSm * schedLimitMultiplier; }

    /** Throws FatalError when parameters are inconsistent. */
    void validate() const;

    /** Pretty-print as a two-column table (used by TAB-1). */
    void print(std::ostream &os) const;

    /**
     * Memberwise equality — the parallel runner reuses a worker's Gpu
     * arena across runs only when the configs compare equal, and
     * checkpoint restore requires the restoring Gpu's config to match
     * the checkpointed one.
     */
    bool operator==(const GpuConfig &) const = default;
};

static_assert(std::is_trivially_copyable_v<GpuConfig>,
              "GpuConfig must stay a plain value type (checkpoints "
              "serialize it field by field — see gpu.cc)");

} // namespace vtsim

#endif // VTSIM_CONFIG_GPU_CONFIG_HH
