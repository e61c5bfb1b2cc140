/**
 * @file
 * The Virtual Thread (VT) architecture of Yoon et al., ISCA 2016 — the
 * paper's primary contribution.
 *
 * One VirtualThreadManager per SM owns the CTA residency state machine:
 *
 *   admit -> Active ----------------------------> finished
 *              | all warps long-latency stalled
 *              v
 *        SwappingOut -(swapOutLatency)-> Inactive
 *                                           | chosen for swap-in
 *                                           v
 *                                       SwappingIn -(swapInLatency)-> Active
 *
 * CTAs are admitted up to the *capacity* limit (register file + shared
 * memory), ignoring the scheduling limit; only the *active* subset
 * respects the scheduling limit (warp slots, CTA slots, thread slots).
 * Because inactive CTAs keep their registers and shared memory resident,
 * a swap moves only the small scheduling state, whose cost is the
 * configured swap latencies.
 *
 * With vtEnabled == false the same class degrades to the baseline
 * machine: admission respects the scheduling limit and every resident
 * CTA is Active.
 */

#ifndef VTSIM_CORE_VIRTUAL_THREAD_HH
#define VTSIM_CORE_VIRTUAL_THREAD_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hh"
#include "config/gpu_config.hh"
#include "sim/serializer.hh"
#include "stats/stats.hh"

namespace vtsim::telemetry {
class TraceJsonWriter;
}

namespace vtsim {

/**
 * What the VT manager needs to observe about CTAs; implemented by SmCore
 * (and by mocks in unit tests).
 */
class VtCtaQuery
{
  public:
    virtual ~VtCtaQuery() = default;

    /** True when no live warp of Active CTA @p id could issue this
     *  cycle for warp-local reasons (dependences, barrier), ignoring
     *  per-cycle structural ports. Polled from tick() only. */
    virtual bool ctaFullyStalled(VirtualCtaId id) const = 0;

    /** True when at least one warp of Active CTA @p id is blocked
     *  waiting on an off-chip (long-latency) memory dependence. Polled
     *  from tick() only. */
    virtual bool ctaAnyWarpLongStalled(VirtualCtaId id) const = 0;

    /** Outstanding off-chip transactions across the CTA's warps. */
    virtual std::uint32_t ctaPendingOffChip(VirtualCtaId id) const = 0;

    /**
     * The CTA's issuability (isIssuable()) just flipped: it entered
     * (@p issuable) or left (!@p issuable) the Active state. Fired
     * *after* the state change, so isIssuable(@p id) already reports the
     * new value. SmCore uses this to publish/retract the CTA's warps in
     * its ready bits; not every observer needs it, hence the
     * default no-op. A finished CTA fires no flip — the owner retires it
     * through onCtaFinished and has retired all its warps already.
     */
    virtual void onCtaIssuableChanged(VirtualCtaId id, bool issuable)
    {
        (void)id;
        (void)issuable;
    }
};

/** Residency state of one virtual CTA. */
enum class CtaState : std::uint8_t
{
    Active,      ///< Occupies scheduling structures; warps may issue.
    SwappingOut, ///< Scheduling state being saved; frozen.
    Inactive,    ///< Resident in RF/shared memory only; frozen.
    SwappingIn,  ///< Scheduling state being restored; frozen.
};

std::string toString(CtaState state);

/** Per-kernel CTA resource footprint, in the SM's allocation units. */
struct CtaFootprint
{
    std::uint32_t warpsPerCta = 0;
    std::uint32_t threadsPerCta = 0;
    std::uint32_t regsPerCta = 0;    ///< After warp-granularity rounding.
    std::uint32_t sharedPerCta = 0;  ///< After allocation rounding.
};

class VirtualThreadManager
{
  public:
    VirtualThreadManager(const GpuConfig &config, VtCtaQuery &query,
                         SmId sm_id);

    /** Set the footprint all CTAs of the running kernel share
     *  (solo launch: grid 0). */
    void configureKernel(const CtaFootprint &footprint)
    { configureGrid(0, footprint); }

    /** Set the per-CTA footprint of one co-resident grid. Call for
     *  every grid of a concurrent launch before any admission. */
    void configureGrid(GridId grid, const CtaFootprint &footprint);

    /** Can one more CTA of @p grid be admitted (VT: capacity limit
     *  only; baseline: scheduling and capacity limits)? */
    bool canAdmit(GridId grid = 0) const;

    /** A new CTA arrived from the dispatcher. Freshly launched CTAs
     *  activate immediately when an active slot is free (CTA launch
     *  initialisation is free in baseline and VT alike). */
    void onAdmit(VirtualCtaId id, Cycle now, GridId grid = 0);

    /** The CTA retired all its warps. */
    void onCtaFinished(VirtualCtaId id, Cycle now);

    /** Advance the state machine one cycle. */
    void tick(Cycle now);

    /**
     * Earliest cycle >= @p now at which tick() might change state given
     * no external event (memory completion, issue, admission) happens
     * first: a Swapping* transition completing, or a stalled Active
     * CTA's streak first reaching the swap threshold. neverCycle when
     * only external events can change the machine.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account @p n ticked-but-eventless cycles in one step: per-cycle
     * residency samples, and stall-streak growth of stalled Active
     * CTAs. Only valid over a window where every input the state
     * machine reads is constant and no transition or threshold
     * crossing occurs (i.e. nextEventCycle() lies beyond the window).
     */
    void fastForwardIdle(std::uint64_t n);

    /** Warps of @p id may issue only when it is Active.
     *  Inline: this sits on the per-warp issue fast path. */
    bool isIssuable(VirtualCtaId id) const
    {
        return id < ctas_.size() && ctas_[id].resident &&
               ctas_[id].state == CtaState::Active;
    }

    /**
     * Externally imposed cap on active CTAs (CTA throttling). Applied
     * lazily: already-active CTAs are unaffected; activations above the
     * cap are deferred.
     */
    void setActiveCap(std::uint32_t cap) { dynamicCap_ = cap; }
    std::uint32_t activeCap() const { return dynamicCap_; }

    /**
     * Block (or unblock) activations of @p grid's CTAs: blocked grids
     * are skipped by swap-in / free-slot-fill candidate selection, so
     * their resident CTAs park Inactive. Already-active CTAs are not
     * touched — pair with forceSwapOut to vacate them. Used by the
     * preempt sharing policy at its decision boundaries.
     */
    void setGridActivationBlocked(GridId grid, bool blocked)
    { activationBlocked_[grid] = blocked ? 1 : 0; }
    bool gridActivationBlocked(GridId grid) const
    { return activationBlocked_[grid] != 0; }

    /**
     * Preempt one Active CTA: swap it out now regardless of its stall
     * state (Pai et al.-style preemptive thread-block scheduling). The
     * freed active slot is NOT immediately refilled — the caller decides
     * who runs next (blocked grids would otherwise race back in).
     * Requires vtEnabled (the swap machinery completes the transition).
     */
    void forceSwapOut(VirtualCtaId id, Cycle now);

    CtaState state(VirtualCtaId id) const;
    /** Grid the resident CTA in slot @p id belongs to. */
    GridId gridOf(VirtualCtaId id) const;
    std::uint32_t residentCtas() const { return residentCount_; }
    std::uint32_t activeCtas() const { return activeCtas_; }

    // --- Capacity bookkeeping (for FIG-2 utilisation) ---------------------
    std::uint32_t regsInUse() const { return regsInUse_; }
    std::uint32_t sharedInUse() const { return sharedInUse_; }
    std::uint32_t warpsActive() const { return warpsActive_; }
    std::uint32_t threadsActive() const { return threadsActive_; }

    // --- Stats -------------------------------------------------------------
    std::uint64_t swapOuts() const { return swapOuts_.value(); }
    std::uint64_t swapIns() const { return swapIns_.value(); }
    std::uint64_t gridSwapOuts(GridId g) const
    { return gridSwapOuts_.at(g).value(); }
    std::uint64_t gridSwapIns(GridId g) const
    { return gridSwapIns_.at(g).value(); }
    StatGroup &stats() { return stats_; }

    /**
     * Route residency transitions to a per-Gpu Perfetto writer (null
     * disables). Each CTA slot becomes a trace "thread" (pid = SM id,
     * tid = slot) carrying back-to-back duration events named after the
     * residency state — admit/finish are instant markers.
     */
    void setTraceJson(telemetry::TraceJsonWriter *writer)
    { traceJson_ = writer; }

    // Checkpoint plumbing (driven by the owning SmCore).
    void reset();
    void save(Serializer &ser) const;
    void restore(Deserializer &des);

  private:
    struct CtaRec
    {
        bool resident = false;   ///< Slot holds a live CTA.
        CtaState state = CtaState::Active;
        Cycle transitionAt = 0;  ///< When the current Swapping* finishes.
        std::uint64_t age = 0;   ///< Admission order.
        std::uint32_t stalledFor = 0; ///< Consecutive fully-stalled cycles.
        bool everSwapped = false;
        /**
         * The streak condition / swap trigger as tick() last evaluated
         * them. nextEventCycle() and fastForwardIdle() run either in the
         * same cycle as that tick or across a window where the inputs
         * are constant (external events can only clear a stall, which
         * makes a horizon built from these caches conservative), so they
         * read the caches instead of re-scanning the CTA's warps.
         */
        bool stalledNow = false;
        bool triggeredNow = false;
        /** Owning grid (concurrent launches; solo CTAs are grid 0). */
        GridId grid = 0;
    };

    /** Would one more Active CTA with footprint @p fp fit the
     *  scheduling limit right now? */
    bool activeSlotFreeFor(const CtaFootprint &fp) const;
    /** Does any configured grid's footprint fit? If not, no inactive
     *  CTA can fill a free slot, so pickSwapIn(false) is skipped. */
    bool anyFootprintFits() const;
    void activate(VirtualCtaId id, Cycle now);
    void releaseActiveSlot(const CtaFootprint &fp);
    /** Best inactive CTA to bring in, or invalidId. When
     *  @p require_ready is set (swap decisions under ReadyFirst), only a
     *  CTA with no outstanding data qualifies. */
    VirtualCtaId pickSwapIn(bool require_ready) const;

    /** Close slot @p id's open residency span and open @p state's. */
    void traceStateChange(VirtualCtaId id, CtaState state, Cycle now);

    const GpuConfig &config_;
    VtCtaQuery &query_;
    SmId smId_;
    telemetry::TraceJsonWriter *traceJson_ = nullptr;
    /** Per-grid CTA footprints (solo launches configure only slot 0). */
    std::array<CtaFootprint, maxGrids> fps_{};
    /** Grids whose activations are blocked (preempt policy). */
    std::array<std::uint8_t, maxGrids> activationBlocked_{};

    /** Slot-indexed (SmCore hands out dense, reused slot ids); iterating
     *  in index order matches the admission-map order it replaces. */
    std::vector<CtaRec> ctas_;
    /** Earliest transitionAt of a Swapping* CTA (neverCycle if none):
     *  tick() skips the transition loop before it. Derived state,
     *  recomputed on restore. */
    Cycle nextTransition_ = neverCycle;
    std::uint32_t residentCount_ = 0;
    std::uint64_t nextAge_ = 0;
    std::uint32_t dynamicCap_ =
        std::numeric_limits<std::uint32_t>::max();

    std::uint32_t activeCtas_ = 0;
    std::uint32_t warpsActive_ = 0;
    std::uint32_t threadsActive_ = 0;
    std::uint32_t regsInUse_ = 0;
    std::uint32_t sharedInUse_ = 0;

    StatGroup stats_;
    Counter swapOuts_;
    Counter swapIns_;
    std::array<Counter, maxGrids> gridSwapOuts_;
    std::array<Counter, maxGrids> gridSwapIns_;
    Counter freshActivations_;
    Counter swapInNotReady_; ///< Swap-ins of CTAs still awaiting data.
    ScalarStat residentSamples_;
    ScalarStat activeSamples_;
    /** Victim stall-streak length at each swap-out decision — the
     *  interval sampler's swap-latency series (p50/p95 per interval).
     *  Event-driven, so fast-forward windows cannot split a sample. */
    Histogram swapStallStreak_{32, 8.0};
};

} // namespace vtsim

#endif // VTSIM_CORE_VIRTUAL_THREAD_HH
