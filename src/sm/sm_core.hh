/**
 * @file
 * One streaming multiprocessor: warp contexts grouped into virtual CTAs,
 * warp schedulers, execution timing, the LDST unit, barriers, and the
 * Virtual Thread manager that decides which CTAs may issue.
 */

#ifndef VTSIM_SM_SM_CORE_HH
#define VTSIM_SM_SM_CORE_HH

#include <array>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "config/gpu_config.hh"
#include "core/virtual_thread.hh"
#include "cta/cta_dispatcher.hh"
#include "cta/cta_throttler.hh"
#include "func/exec_context.hh"
#include "isa/kernel.hh"
#include "mem/shared_memory.hh"
#include "sm/barrier_manager.hh"
#include "sm/ldst_unit.hh"
#include "sm/warp_context.hh"
#include "sm/warp_scheduler.hh"
#include "stats/stats.hh"

namespace vtsim::telemetry {
class StatRegistry;
class TraceJsonWriter;
}

namespace vtsim {

class GlobalMemory;
class Interconnect;

/** Why a scheduler slot issued nothing in a cycle (FIG-8 breakdown). */
struct StallBreakdown
{
    std::uint64_t issued = 0;       ///< Scheduler-cycles that issued.
    std::uint64_t memStall = 0;     ///< Blocked on off-chip memory.
    std::uint64_t shortStall = 0;   ///< Blocked on short dependences/ports.
    std::uint64_t barrierStall = 0; ///< Everyone parked at a barrier.
    std::uint64_t swapStall = 0;    ///< Only swap-frozen CTAs resident.
    std::uint64_t idle = 0;         ///< No warps at all.
};

class SmCore : public SimComponent, public LdstClient, public VtCtaQuery
{
  public:
    SmCore(SmId id, const GpuConfig &config, Interconnect &noc);

    /**
     * Start binding the grids of one (possibly concurrent) launch: the
     * SM must be empty; previous bindings are dropped. Follow with one
     * bindGrid() per co-resident grid.
     */
    void beginGridBinding(GlobalMemory &gmem);

    /** Bind grid @p grid's kernel and launch shape and configure its
     *  CTA footprint in the VT manager. */
    void bindGrid(GridId grid, const Kernel &kernel,
                  const LaunchParams &launch);

    /**
     * Re-attach one grid's kernel/launch/memory bindings after a
     * checkpoint restore: unlike bindGrid() this neither requires an
     * empty SM nor reconfigures the VT manager — the restored state
     * already carries both. Rebuilds the issue state.
     */
    void rebindGrid(GridId grid, const Kernel &kernel,
                    const LaunchParams &launch, GlobalMemory &gmem);

    /** True when another CTA of @p grid can be admitted right now. */
    bool canAdmitCta(GridId grid = 0) const;

    /** Admit one CTA of @p grid from its dispatcher. */
    void admitCta(const CtaAssignment &assignment, Cycle now,
                  GridId grid = 0);

    /**
     * Preempt-policy hook: force-swap-out up to @p max_ctas Active CTAs
     * of @p grid (lowest slot first), freeing their scheduling slots
     * for a higher-priority grid. Returns how many were swapped.
     * Requires the VT machine (vtEnabled).
     */
    std::uint32_t forcePreemptGrid(GridId grid, std::uint32_t max_ctas,
                                   Cycle now);

    /** A CTA of @p grid is resident here but not Active (swap-frozen or
     *  parked Inactive) — the preempt policy's signal that vacating an
     *  active slot on this SM would let @p grid progress. */
    bool hasInactiveCta(GridId grid) const;

    /** Block/unblock activations of @p grid (preempt policy); forwards
     *  to the VT manager after settling lazy-tick state. */
    void setGridActivationBlocked(GridId grid, bool blocked)
    {
        onExternalEvent();
        vt_.setGridActivationBlocked(grid, blocked);
    }

    /** Advance one cycle. */
    void tick(Cycle now) override;

    /**
     * Earliest cycle >= @p now at which tick() might do real work given
     * no admission and no NoC delivery happens first: a warp becoming
     * ready or issuable, a writeback or L1-hit maturing, a VT transition
     * or swap-threshold crossing, a throttle-epoch boundary, or the
     * shared-memory port freeing. neverCycle when the SM is fully
     * event-blocked (e.g. every live warp waits on off-chip memory).
     * Non-const: flushes deferred idle-tick accounting first.
     */
    Cycle nextEventCycle(Cycle now) override;

    /** Cache-free recomputation for the horizon oracle: same answer a
     *  fresh SM in this state would give, bypassing the lazy-window
     *  horizon cached by tick(). */
    Cycle nextEventCycleFresh(Cycle now) override;

    /**
     * Bring all per-cycle accounting up to date through cycle
     * @p cycle - 1, exactly as empty tick() calls would have: per-cycle
     * stat samples, stall-bubble classification, VT stall streaks and
     * throttler-epoch observations. Only valid when
     * nextEventCycle() >= @p cycle. Cycle @p cycle itself is left for
     * the next real tick.
     */
    void settleTo(Cycle cycle) override;

    // SimComponent lifecycle: return to the just-constructed state /
    // checkpoint the full SM (CTAs, warps, LDST, VT, barriers,
    // schedulers, stats; the ready sets are rebuilt on restore).
    void reset() override;
    void save(Serializer &ser) const override;
    void restore(Deserializer &des) override;

    /**
     * Apply deferred accounting of lazily skipped ticks (see tick()).
     * Called automatically before any state change or query that could
     * observe the deferral; public so Gpu can settle accounts before
     * reading final statistics.
     */
    void flushFastForward();

    /** No resident CTAs and no memory traffic in flight. */
    bool idle() const;

    /** Invalidate L1 (kernel boundary). */
    void flushCaches()
    {
        onExternalEvent();
        ldst_.flushCaches();
    }

    SmId id() const { return id_; }
    LdstUnit &ldst() { return ldst_; }
    VirtualThreadManager &vt() { return vt_; }
    const VirtualThreadManager &vt() const { return vt_; }
    /** Null unless throttleEnabled. */
    CtaThrottler *throttler() { return throttler_.get(); }

    std::uint64_t instructionsIssued() const
    { return instructionsIssued_.value(); }
    std::uint64_t threadInstructions() const
    { return threadInstructions_.value(); }
    std::uint64_t ctasCompleted() const { return ctasCompleted_.value(); }
    /** CTAs of one grid retired on this SM (concurrent launches; the
     *  preempt policy's online progress estimate reads this). */
    std::uint64_t gridCtasCompleted(GridId g) const
    { return gridCtasCompleted_.at(g).value(); }
    const StallBreakdown &stallBreakdown() const { return stalls_; }
    std::uint32_t maxSimtDepthSeen() const { return maxSimtDepth_; }
    StatGroup &stats() { return stats_; }

    /** Flatten every stat group this SM owns (core, VT, LDST, L1,
     *  shared memory, throttler) into @p reg and tag the probes that
     *  feed KernelStats. Call once, after construction. */
    void registerTelemetry(telemetry::StatRegistry &reg);

    /** Route this SM's trace events (VT residency, barrier releases)
     *  to a per-Gpu Perfetto writer; null disables. */
    void setTraceJson(telemetry::TraceJsonWriter *writer);

    // --- Memory-trace record/replay (mem/mtrace.hh) -------------------------

    /** Record mode: stream every coalesced global transaction and
     *  barrier arrival of this SM to @p writer; null disables. */
    void setMtrace(MtraceWriter *writer);

    /**
     * Enter replay mode: instead of executing warps, this SM injects
     * @p slice — the trace's access records for this SM, cycles
     * relative to the launch marker — into its LDST unit on schedule.
     * @p base is the simulation cycle that corresponds to trace
     * cycle 0. The SM admits no CTAs in this mode and is idle once the
     * cursor and the memory system drain.
     */
    void beginReplay(const std::vector<MtraceAccess> *slice, Cycle base);

    /** Re-attach the (unserialized) trace slice after a checkpoint
     *  restore; the restored cursor and base pick up where the
     *  recording left off. */
    void resumeReplay(const std::vector<MtraceAccess> *slice);

    bool replaying() const { return replayMode_; }

    // --- Sharded-epoch support (docs/ARCHITECTURE.md "Sharded
    // simulation") -----------------------------------------------------------

    /**
     * One global-memory instruction issued while the epoch log was
     * armed. The per-SM log is in issue order; concatenating the SM
     * logs in SM order and stable-sorting by cycle reproduces the exact
     * global-memory op order of the sequential run, which the barrier
     * replay applies against settled memory.
     */
    struct EpochMemOp
    {
        Cycle cycle;
        VirtualCtaId slot;
        std::uint32_t warpInCta;
        Opcode op;
        RegIndex dst; ///< noReg when the op has no destination.
        std::vector<LaneAccess> accesses;
    };

    /** Arm the epoch log: every global LDG/STG/ATOMG_ADD issued from now
     *  on is recorded (the functional write side is deferred by
     *  GlobalMemory::setDeferWrites, driven by the Gpu epoch driver). */
    void beginEpochMemLog()
    {
        epochMemLog_.clear();
        epochLogging_ = true;
    }
    void endEpochMemLog() { epochLogging_ = false; }
    const std::vector<EpochMemOp> &epochMemLog() const
    { return epochMemLog_; }

    /** Overwrite a lane's destination register after the barrier replay
     *  observed a different value than the deferred-write functional
     *  pass did. Sound mid-epoch: the register is scoreboard-held until
     *  the load completes, which is past the epoch end. */
    void patchLaneReg(VirtualCtaId slot, std::uint32_t warp_in_cta,
                      std::uint32_t lane, RegIndex dst, std::uint32_t value)
    {
        ctas_[slot].func.writeReg(warp_in_cta * warpSize + lane, dst,
                                  value);
    }

    /** Debug-only thread-confinement check: during a sharded epoch only
     *  the owning shard worker may tick this SM. Default-constructed id
     *  disables the check (sequential mode). */
    void setEpochOwner(std::thread::id owner) { epochOwner_ = owner; }

    // --- LdstClient ---------------------------------------------------------
    void loadComplete(VirtualCtaId vcta, std::uint32_t warp_in_cta,
                      RegIndex dst) override;
    void offChipIssued(VirtualCtaId vcta,
                       std::uint32_t warp_in_cta) override;
    void offChipReturned(VirtualCtaId vcta,
                         std::uint32_t warp_in_cta) override;
    void responseArriving(Cycle now) override;

    // --- VtCtaQuery ---------------------------------------------------------
    bool ctaFullyStalled(VirtualCtaId id) const override;
    bool ctaAnyWarpLongStalled(VirtualCtaId id) const override;
    std::uint32_t ctaPendingOffChip(VirtualCtaId id) const override;
    void onCtaIssuableChanged(VirtualCtaId id, bool issuable) override;

  private:
    /**
     * A CTA's issue-path counters (its ready bits live in readyBits_).
     * All of it is derived from the CTA's warps and VT state: maintained
     * incrementally at every transition, and recomputed by scanCta() for
     * the oracle and after a checkpoint restore (checkpoints do not carry
     * it).
     */
    struct CtaIssueState
    {
        /** Per scheduler slot: live warps, live warps parked at the
         *  barrier, and live warps with >= 1 off-chip transaction
         *  outstanding — what the bubble classifier reads instead of
         *  scanning warps. */
        std::vector<std::uint32_t> aliveBySched;
        std::vector<std::uint32_t> barrierBySched;
        std::vector<std::uint32_t> offchipBySched;
        std::uint32_t warpsAlive = 0;
        /** Sum of the warps' pendingOffChip counts, so the VT swap-in
         *  readiness test does not rescan warps. */
        std::uint32_t pendingOffChipTotal = 0;

        bool operator==(const CtaIssueState &) const = default;
    };

    /** Per-scheduler sums of the CTAs' issue state: live warps of all
     *  valid CTAs and of the frozen ones, and the barrier and off-chip
     *  counts of the Active ones. Derived like CtaIssueState. */
    struct SchedIssueState
    {
        std::vector<std::uint32_t> alive;
        std::vector<std::uint32_t> frozenAlive;
        std::vector<std::uint32_t> issuableBarrier;
        std::vector<std::uint32_t> issuableOffchip;

        bool operator==(const SchedIssueState &) const = default;
    };

    /** One resident (virtual) CTA: functional state + warp contexts. */
    struct VirtualCta
    {
        bool valid = false;
        /** Owning grid of a concurrent launch (solo CTAs: grid 0). */
        GridId grid = 0;
        std::uint64_t age = 0;
        CtaFuncState func;
        std::vector<WarpContext> warps;
        CtaIssueState issue;
    };

    /** Per-cycle structural budgets, reset each tick. */
    struct IssueBudgets
    {
        std::uint32_t alu = 0;
        std::uint32_t sfu = 0;
        std::uint32_t mem = 0;
    };

    /** Attribution of a scheduler-cycle that issued nothing. */
    enum class BubbleKind : std::uint8_t
    {
        Idle,
        Mem,
        Barrier,
        Swap,
        Short,
    };

    bool budgetAllows(const Instruction &inst,
                      const IssueBudgets &budgets) const;
    void chargeBudget(const Instruction &inst, IssueBudgets &budgets) const;
    void issueWarp(VirtualCta &cta, VirtualCtaId slot, WarpContext &warp,
                   const Instruction &inst, Cycle now);
    void maybeReleaseBarrier(VirtualCtaId slot, Cycle now);
    void finishCta(VirtualCtaId slot, Cycle now);
    /** Attribute a scheduler-cycle that issued nothing, from one walk
     *  of the scheduler's ready bits plus the cached stall counters. */
    BubbleKind classifyIssueBubble(std::uint32_t scheduler,
                                   Cycle now) const;
    /** The nextEventCycle() min-reduction itself, over settled state.
     *  Non-const only because LdstUnit::nextEventCycle is (it overrides
     *  the non-const SimComponent signature); it mutates nothing. */
    Cycle computeNextEvent(Cycle now);
    void chargeBubble(BubbleKind kind, std::uint64_t n);
    /** The per-cycle bookkeeping of @p n eventless ticks at @p now. */
    void accountIdleCycles(Cycle now, std::uint64_t n);
    /** State changed from outside tick(): settle and drop the cached
     *  idle horizon. */
    void onExternalEvent();

    // --- Ready sets (docs/ARCHITECTURE.md "Issue-path data structures") --
    /** One scheduler's issuable warps this cycle, for its policy. */
    class IssueProbe;

    /** The warp-local, time-invariant part of issuability: alive, not at
     *  the barrier, and no scoreboard hazard at its current PC. Combined
     *  with the CTA's Active state this is the ready-set membership
     *  rule; readyAt and the structural ports stay sweep-time checks. */
    bool warpReadyMember(const VirtualCta &cta,
                         const WarpContext &warp) const
    {
        if (warp.done() || warp.atBarrier())
            return false;
        // With nothing in flight there is no hazard and the EXIT drain
        // rule is vacuous: skip the decode entirely (the common case on
        // the refresh-after-writeback path).
        if (warp.scoreboard().pendingCount() == 0)
            return true;
        const Instruction &inst = kernelOf(cta)->at(warp.stack().pc());
        if (inst.isExit())
            return false;
        return !warp.scoreboard().hasHazard(inst);
    }

    /** Kernel / launch shape of the grid a CTA belongs to. */
    const Kernel *kernelOf(const VirtualCta &cta) const
    { return grids_[cta.grid].kernel; }
    const LaunchParams *launchOf(const VirtualCta &cta) const
    { return grids_[cta.grid].launch; }

    /** Re-derive warp (slot, w)'s ready-set membership and set or clear
     *  its bit accordingly. Idempotent; called after every state
     *  transition that can change membership. */
    void refreshWarp(VirtualCtaId slot, std::uint32_t w);

    /** Retire warp @p w of issuable CTA @p slot: settle the alive /
     *  barrier / off-chip counters it contributed to. */
    void retireWarpCounters(VirtualCta &cta, const WarpContext &warp);

    /** An Active CTA in the age order: its age and slot. */
    struct ActiveCta
    {
        std::uint64_t age;
        VirtualCtaId slot;
        auto operator<=>(const ActiveCta &) const = default;
    };

    /** First entry of activeByAge_ whose CTA is not older than @p age. */
    std::vector<ActiveCta>::const_iterator
    activeFrom(std::uint64_t age) const;

    /** CTA slot @p slot's readyStride_ words of ready bits. */
    std::uint64_t *readyOf(VirtualCtaId slot)
    { return readyBits_.data() + std::size_t(slot) * readyStride_; }
    const std::uint64_t *readyOf(VirtualCtaId slot) const
    { return readyBits_.data() + std::size_t(slot) * readyStride_; }

    /** The counters of CTA @p slot (its ready bits written to the
     *  readyStride_ words at @p ready), the per-scheduler sums and the
     *  age order, as a full scan of warp and VT state derives them. A
     *  CTA whose kernel is not bound (yet) gets clear ready bits:
     *  membership decodes the warp's next instruction. */
    CtaIssueState scanCta(VirtualCtaId slot, std::uint64_t *ready) const;
    SchedIssueState sumSchedulers() const;
    std::vector<ActiveCta> scanActiveByAge() const;

    /** Recompute all of the above (checkpoints do not carry them). */
    void rebuildIssueState();

    /** Cross-check the issue state against a full scan, and that no
     *  live warp has readyAt > @p now. */
    void verifyReadySets(Cycle now) const;

    bool oracleEnabled() const
    {
#ifndef NDEBUG
        return true;
#else
        return config_.readySetOracle;
#endif
    }

    /** One co-resident grid's bindings. Pointers owned by the Gpu's
     *  launch context; stable for the run's duration. */
    struct GridBinding
    {
        const Kernel *kernel = nullptr;
        const LaunchParams *launch = nullptr;
    };

    SmId id_;
    const GpuConfig &config_;
    /** Grids of the current launch, indexed by GridId (solo: size 1). */
    std::vector<GridBinding> grids_;
    GlobalMemory *gmem_ = nullptr;

    LdstUnit ldst_;
    SharedMemoryModel shmem_;
    BarrierManager barriers_;
    VirtualThreadManager vt_;
    std::unique_ptr<CtaThrottler> throttler_;

    std::vector<VirtualCta> ctas_;
    std::vector<VirtualCtaId> freeSlots_;
    std::uint32_t residentCount_ = 0;
    std::uint64_t nextCtaAge_ = 0;

    std::vector<std::unique_ptr<WarpScheduler>> schedulers_;

    /** Scratch for barrier releases (avoids a vector per release). */
    std::vector<std::uint32_t> barrierScratch_;

    /** Words of ready bits per scheduler per CTA (enough for the
     *  largest CTA the scheduling limit admits, effMaxWarpsPerSm()), and
     *  per CTA slot (numSchedulers of those). */
    const std::uint32_t readyWords_;
    const std::uint32_t readyStride_;
    /**
     * Ready bits of every CTA slot, flat so that the issue walks and
     * the VT stall poll touch a few adjacent words rather than each
     * CTA's record: bit w % 64 of readyOf(slot)[s * readyWords_ + w / 64]
     * is set iff warp w sits on scheduler s and is a ready-set member
     * (see refreshWarp). Zero for slots whose CTA is not Active.
     */
    std::vector<std::uint64_t> readyBits_;
    /**
     * The Active CTAs, oldest first. Walking them in this order and each
     * CTA's bits by count-trailing-zeros visits warps in ascending
     * scheduler key (age * 256 + w), so "first candidate" is "oldest".
     */
    std::vector<ActiveCta> activeByAge_;
    SchedIssueState sched_;

    struct Writeback
    {
        Cycle at;
        VirtualCtaId vcta;
        std::uint32_t warpInCta;
        RegIndex reg;
        /** Total order (see LdstUnit::HitCompletion): same-cycle ties
         *  must pop identically in a checkpoint-restored run. */
        bool operator>(const Writeback &o) const
        {
            if (at != o.at)
                return at > o.at;
            if (vcta != o.vcta)
                return vcta > o.vcta;
            if (warpInCta != o.warpInCta)
                return warpInCta > o.warpInCta;
            return reg > o.reg;
        }
    };
    std::priority_queue<Writeback, std::vector<Writeback>,
                        std::greater<>> wbQueue_;

    Cycle now_ = 0;
    std::uint32_t maxSimtDepth_ = 0;

    // Lazy-tick state: while now < ffHorizon_ and no external event
    // arrives, tick() only counts the cycle; the bookkeeping is applied
    // in bulk when the window closes.
    Cycle ffHorizon_ = 0;
    Cycle ffWindowStart_ = 0;
    std::uint64_t ffPending_ = 0;

    StatGroup stats_;
    Counter instructionsIssued_;
    Counter threadInstructions_;
    Counter ctasCompleted_;
    /** Per-grid splits of the three counters above (concurrent
     *  launches); the aggregates keep counting everything, so solo
     *  stats are untouched. */
    std::array<Counter, maxGrids> gridInstructions_;
    std::array<Counter, maxGrids> gridThreadInstructions_;
    std::array<Counter, maxGrids> gridCtasCompleted_;
    StallBreakdown stalls_;
    telemetry::TraceJsonWriter *traceJson_ = nullptr;

    bool epochLogging_ = false;
    std::vector<EpochMemOp> epochMemLog_;
    std::thread::id epochOwner_{};

    /** Record-mode sink (not machine state, never checkpointed). */
    MtraceWriter *mtrace_ = nullptr;
    /** Replay mode: drive the LDST unit from a trace slice instead of
     *  executing warps. The cursor and base are machine state (saved in
     *  "smcr"); the slice pointer is rebound on restore. */
    bool replayMode_ = false;
    const std::vector<MtraceAccess> *replay_ = nullptr;
    std::uint64_t replayCursor_ = 0;
    Cycle replayBase_ = 0;

    /** Reusable ExecResult executeMicroInto fills per issue, so the
     *  hot loop never allocates access vectors. Plain scratch: not
     *  machine state, never checkpointed. */
    ExecResult execScratch_;
};

} // namespace vtsim

#endif // VTSIM_SM_SM_CORE_HH
