#include "sm/sm_core.hh"

#include <algorithm>

#include "common/log.hh"
#include "isa/disassembler.hh"
#include "func/global_memory.hh"
#include "sim/serialize_util.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_json.hh"

namespace vtsim {

SmCore::SmCore(SmId id, const GpuConfig &config, Interconnect &noc)
    : id_(id), config_(config), ldst_(id, config, noc, *this),
      shmem_(config.sharedMemLatency, "sm" + std::to_string(id) + ".shmem"),
      vt_(config, *this, id),
      readyWords_((config.effMaxWarpsPerSm() + 63) / 64),
      readyStride_(config.numSchedulers * readyWords_),
      stats_("sm" + std::to_string(id))
{
    for (std::uint32_t s = 0; s < config.numSchedulers; ++s) {
        // Two-level active set: a quarter of the warp slots per scheduler.
        const std::uint32_t active_set =
            std::max(1u, config.effMaxWarpsPerSm() /
                             (4 * config.numSchedulers));
        schedulers_.push_back(
            WarpScheduler::create(config.schedulerPolicy, active_set));
    }
    sched_ = sumSchedulers();
    stats_.addCounter("instructions", &instructionsIssued_,
                      "warp instructions issued");
    stats_.addCounter("thread_instructions", &threadInstructions_,
                      "per-thread instructions (mask population)");
    stats_.addCounter("ctas_completed", &ctasCompleted_, "CTAs retired");
    for (GridId g = 0; g < maxGrids; ++g) {
        const std::string p = "grid" + std::to_string(g);
        stats_.addCounter(p + ".instructions", &gridInstructions_[g],
                          "warp instructions of grid " + std::to_string(g));
        stats_.addCounter(p + ".thread_instructions",
                          &gridThreadInstructions_[g],
                          "thread instructions of grid " +
                              std::to_string(g));
        stats_.addCounter(p + ".ctas_completed", &gridCtasCompleted_[g],
                          "CTAs of grid " + std::to_string(g) +
                              " retired");
    }
    stats_.addValue("issue.issued", &stalls_.issued,
                    "scheduler-cycles that issued");
    stats_.addValue("issue.bubbles.mem", &stalls_.memStall,
                    "scheduler-cycles blocked on off-chip memory");
    stats_.addValue("issue.bubbles.short", &stalls_.shortStall,
                    "scheduler-cycles blocked on short dependences/ports");
    stats_.addValue("issue.bubbles.barrier", &stalls_.barrierStall,
                    "scheduler-cycles with everyone parked at a barrier");
    stats_.addValue("issue.bubbles.swap", &stalls_.swapStall,
                    "scheduler-cycles with only swap-frozen CTAs resident");
    stats_.addValue("issue.bubbles.idle", &stalls_.idle,
                    "scheduler-cycles with no warps at all");
    if (config.throttleEnabled) {
        ThrottleParams tp;
        tp.epochCycles = config.throttleEpochCycles;
        tp.highWater = config.throttleHighWater;
        tp.lowWater = config.throttleLowWater;
        throttler_ = std::make_unique<CtaThrottler>(
            tp, config.effMaxCtasPerSm(), id);
    }
}

void
SmCore::registerTelemetry(telemetry::StatRegistry &reg)
{
    using telemetry::KernelStatRole;
    reg.addGroup(stats_);
    reg.setRole(stats_.name() + ".instructions",
                KernelStatRole::WarpInstructions);
    reg.setRole(stats_.name() + ".thread_instructions",
                KernelStatRole::ThreadInstructions);
    reg.setRole(stats_.name() + ".ctas_completed",
                KernelStatRole::CtasCompleted);
    reg.setRole(stats_.name() + ".issue.issued",
                KernelStatRole::StallIssued);
    reg.setRole(stats_.name() + ".issue.bubbles.mem",
                KernelStatRole::StallMem);
    reg.setRole(stats_.name() + ".issue.bubbles.short",
                KernelStatRole::StallShort);
    reg.setRole(stats_.name() + ".issue.bubbles.barrier",
                KernelStatRole::StallBarrier);
    reg.setRole(stats_.name() + ".issue.bubbles.swap",
                KernelStatRole::StallSwap);
    reg.setRole(stats_.name() + ".issue.bubbles.idle",
                KernelStatRole::StallIdle);

    reg.addGroup(vt_.stats());
    reg.setRole(vt_.stats().name() + ".swap_outs", KernelStatRole::SwapOuts);
    reg.setRole(vt_.stats().name() + ".swap_ins", KernelStatRole::SwapIns);

    reg.addGroup(ldst_.stats());
    reg.addGroup(ldst_.l1().stats());
    reg.setRole(ldst_.l1().stats().name() + ".hits",
                KernelStatRole::L1Hits);
    reg.setRole(ldst_.l1().stats().name() + ".misses",
                KernelStatRole::L1Misses);

    // Per-grid splits (concurrent launches): same roles, tagged with the
    // grid so StatsSnapshot::deltaGrid can assemble per-grid KernelStats.
    for (GridId g = 0; g < maxGrids; ++g) {
        const std::string p = ".grid" + std::to_string(g);
        reg.setRole(stats_.name() + p + ".instructions",
                    KernelStatRole::WarpInstructions, g);
        reg.setRole(stats_.name() + p + ".thread_instructions",
                    KernelStatRole::ThreadInstructions, g);
        reg.setRole(stats_.name() + p + ".ctas_completed",
                    KernelStatRole::CtasCompleted, g);
        reg.setRole(vt_.stats().name() + p + ".swap_outs",
                    KernelStatRole::SwapOuts, g);
        reg.setRole(vt_.stats().name() + p + ".swap_ins",
                    KernelStatRole::SwapIns, g);
        reg.setRole(ldst_.l1().stats().name() + p + ".hits",
                    KernelStatRole::L1Hits, g);
        reg.setRole(ldst_.l1().stats().name() + p + ".misses",
                    KernelStatRole::L1Misses, g);
    }

    reg.addGroup(shmem_.stats());
    if (throttler_)
        reg.addGroup(throttler_->stats());
}

void
SmCore::setTraceJson(telemetry::TraceJsonWriter *writer)
{
    traceJson_ = writer;
    vt_.setTraceJson(writer);
    ldst_.setTraceJson(writer);
}

void
SmCore::setMtrace(MtraceWriter *writer)
{
    mtrace_ = writer;
    ldst_.setMtraceWriter(writer);
}

void
SmCore::beginReplay(const std::vector<MtraceAccess> *slice, Cycle base)
{
    VTSIM_ASSERT(residentCount_ == 0, "replay with CTAs resident");
    onExternalEvent();
    replayMode_ = true;
    replay_ = slice;
    replayCursor_ = 0;
    replayBase_ = base;
}

void
SmCore::resumeReplay(const std::vector<MtraceAccess> *slice)
{
    VTSIM_ASSERT(replayMode_, "resumeReplay on a functional-mode SM");
    VTSIM_ASSERT(replayCursor_ <= slice->size(),
                 "restored replay cursor past the trace slice");
    replay_ = slice;
}

void
SmCore::beginGridBinding(GlobalMemory &gmem)
{
    VTSIM_ASSERT(residentCount_ == 0, "kernel launch with CTAs resident");
    onExternalEvent();
    grids_.clear();
    gmem_ = &gmem;
}

void
SmCore::bindGrid(GridId grid, const Kernel &kernel,
                 const LaunchParams &launch)
{
    VTSIM_ASSERT(grid < maxGrids, "grid id ", grid, " out of range");
    if (grid >= grids_.size())
        grids_.resize(grid + 1);
    grids_[grid].kernel = &kernel;
    grids_[grid].launch = &launch;

    const std::uint32_t warps_per_cta = launch.warpsPerCta();
    const std::uint32_t regs_per_warp =
        roundUp(std::uint64_t(kernel.regsPerThread()) * warpSize,
                config_.regAllocGranularity);
    CtaFootprint fp;
    fp.warpsPerCta = warps_per_cta;
    fp.threadsPerCta = launch.threadsPerCta();
    fp.regsPerCta = warps_per_cta * regs_per_warp;
    fp.sharedPerCta = roundUp(kernel.sharedBytesPerCta(),
                              config_.sharedAllocGranularity);

    if (fp.warpsPerCta > config_.effMaxWarpsPerSm() ||
        fp.threadsPerCta > config_.effMaxThreadsPerSm()) {
        VTSIM_FATAL("CTA shape of kernel '", kernel.name(),
                    "' exceeds the SM scheduling limit");
    }
    if (fp.regsPerCta > config_.registersPerSm ||
        fp.sharedPerCta > config_.sharedMemPerSm) {
        VTSIM_FATAL("one CTA of kernel '", kernel.name(),
                    "' exceeds the SM capacity limit");
    }
    vt_.configureGrid(grid, fp);
}

bool
SmCore::canAdmitCta(GridId grid) const
{
    return grid < grids_.size() && grids_[grid].kernel != nullptr &&
           vt_.canAdmit(grid);
}

void
SmCore::admitCta(const CtaAssignment &assignment, Cycle now, GridId grid)
{
    VTSIM_ASSERT(canAdmitCta(grid), "admitCta without canAdmitCta");
    onExternalEvent();

    VirtualCtaId slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = ctas_.size();
        ctas_.emplace_back();
        readyBits_.resize(ctas_.size() * readyStride_, 0);
    }

    const Kernel &kernel = *grids_[grid].kernel;
    const LaunchParams &launch = *grids_[grid].launch;
    VirtualCta &cta = ctas_[slot];
    cta.valid = true;
    cta.grid = grid;
    cta.age = nextCtaAge_++;
    const std::uint32_t tpc = launch.threadsPerCta();
    cta.func.init(assignment.linearId, assignment.idx, tpc,
                  kernel.regsPerThread(), kernel.sharedBytesPerCta());

    const std::uint32_t warps = launch.warpsPerCta();
    cta.warps.assign(warps, WarpContext());
    for (std::uint32_t w = 0; w < warps; ++w) {
        const std::uint32_t first = w * warpSize;
        const std::uint32_t live = std::min(warpSize, tpc - first);
        const std::uint32_t sched =
            (cta.age * warps + w) % config_.numSchedulers;
        cta.warps[w].init(slot, w, ActiveMask::firstLanes(live),
                          kernel.regsPerThread(), sched);
    }
    // The CTA enters as frozen (it is admitted Inactive); onAdmit may
    // activate it at once, which fires onCtaIssuableChanged.
    cta.issue = scanCta(slot, readyOf(slot));
    sched_ = sumSchedulers();

    ++residentCount_;
    barriers_.ctaLaunched(slot);
    vt_.onAdmit(slot, now, grid);
}

std::uint32_t
SmCore::forcePreemptGrid(GridId grid, std::uint32_t max_ctas, Cycle now)
{
    onExternalEvent();
    std::uint32_t swapped = 0;
    for (VirtualCtaId slot = 0;
         slot < ctas_.size() && swapped < max_ctas; ++slot) {
        const VirtualCta &cta = ctas_[slot];
        if (!cta.valid || cta.grid != grid)
            continue;
        if (vt_.state(slot) != CtaState::Active)
            continue;
        vt_.forceSwapOut(slot, now);
        ++swapped;
    }
    return swapped;
}

bool
SmCore::hasInactiveCta(GridId grid) const
{
    for (VirtualCtaId slot = 0; slot < ctas_.size(); ++slot) {
        const VirtualCta &cta = ctas_[slot];
        if (cta.valid && cta.grid == grid && !vt_.isIssuable(slot))
            return true;
    }
    return false;
}

bool
SmCore::budgetAllows(const Instruction &inst,
                     const IssueBudgets &budgets) const
{
    switch (inst.funcUnit()) {
      case FuncUnit::Alu: return budgets.alu > 0;
      case FuncUnit::Sfu: return budgets.sfu > 0;
      case FuncUnit::Mem: return budgets.mem > 0;
      case FuncUnit::Control: return true;
    }
    return false;
}

void
SmCore::chargeBudget(const Instruction &inst, IssueBudgets &budgets) const
{
    switch (inst.funcUnit()) {
      case FuncUnit::Alu: --budgets.alu; break;
      case FuncUnit::Sfu: --budgets.sfu; break;
      case FuncUnit::Mem: --budgets.mem; break;
      case FuncUnit::Control: break;
    }
}

namespace {

/**
 * Call @p f(w) for each warp w whose bit is set in the @p n ready words
 * at @p words — one or more schedulers' worth of @p per_sched words
 * each, ascending w within a scheduler — until @p f returns true;
 * returns whether it did.
 */
template <typename F>
bool
anyBit(const std::uint64_t *words, std::size_t n, std::uint32_t per_sched,
       F &&f)
{
    for (std::size_t k = 0; k < n; ++k) {
        for (std::uint64_t m = words[k]; m != 0; m &= m - 1) {
            const std::uint32_t w = std::uint32_t(k % per_sched) * 64 +
                                    std::uint32_t(__builtin_ctzll(m));
            if (f(w))
                return true;
        }
    }
    return false;
}

} // namespace

/**
 * Scheduler s's candidates this cycle: ready-set members whose readyAt
 * has come, whose port (LDST queue, shared-memory port) is free and
 * whose unit has budget left. Only the probed warps are evaluated.
 * Records the last candidate found — the one the policy picks.
 */
class SmCore::IssueProbe final : public CandidateProbe
{
  public:
    IssueProbe(const SmCore &sm, std::uint32_t s, Cycle now,
               const IssueBudgets &budgets)
        : sm_(sm), s_(s), now_(now), budgets_(budgets)
    {}

    bool
    has(std::uint64_t key) override
    {
        const std::uint64_t age = key >> 8;
        const std::uint32_t w = key & 0xff;
        const auto it = sm_.activeFrom(age);
        if (it == sm_.activeByAge_.end() || it->age != age)
            return false;
        const std::uint64_t word =
            sm_.readyOf(it->slot)[s_ * sm_.readyWords_ + w / 64];
        return (word >> (w % 64) & 1) != 0 && candidate(it->slot, w);
    }

    std::uint64_t
    firstFrom(std::uint64_t from) override
    {
        const std::uint64_t age = from >> 8;
        for (auto it = sm_.activeFrom(age); it != sm_.activeByAge_.end();
             ++it) {
            const std::uint32_t w0 = it->age == age ? from & 0xff : 0;
            const std::uint64_t *words =
                sm_.readyOf(it->slot) + s_ * sm_.readyWords_;
            for (std::uint32_t k = w0 / 64; k < sm_.readyWords_; ++k) {
                std::uint64_t m = words[k];
                if (k == w0 / 64)
                    m &= ~0ull << (w0 % 64);
                for (; m != 0; m &= m - 1) {
                    const std::uint32_t w =
                        k * 64 + std::uint32_t(__builtin_ctzll(m));
                    if (candidate(it->slot, w))
                        return it->age * 256 + w;
                }
            }
        }
        return noCandidate;
    }

    VirtualCtaId slot = 0;
    std::uint32_t warp = 0;
    const Instruction *inst = nullptr;

  private:
    bool
    candidate(VirtualCtaId cta_slot, std::uint32_t w)
    {
        const VirtualCta &cta = sm_.ctas_[cta_slot];
        const WarpContext &wc = cta.warps[w];
        if (wc.readyAt() > now_)
            return false;
        const Instruction &i = sm_.kernelOf(cta)->at(wc.stack().pc());
        if ((i.isGlobalMem() && !sm_.ldst_.canAccept()) ||
            (i.isSharedMem() && !sm_.shmem_.canAccept(now_)) ||
            !sm_.budgetAllows(i, budgets_)) {
            return false;
        }
        slot = cta_slot;
        warp = w;
        inst = &i;
        return true;
    }

    const SmCore &sm_;
    const std::uint32_t s_;
    const Cycle now_;
    const IssueBudgets &budgets_;
};

std::vector<SmCore::ActiveCta>::const_iterator
SmCore::activeFrom(std::uint64_t age) const
{
    return std::lower_bound(activeByAge_.begin(), activeByAge_.end(),
                            ActiveCta{age, 0});
}

void
SmCore::tick(Cycle now)
{
#ifndef NDEBUG
    VTSIM_ASSERT(epochOwner_ == std::thread::id{} ||
                     epochOwner_ == std::this_thread::get_id(),
                 "SM ", id_, " ticked from a non-owning shard worker");
#endif
    if (now < ffHorizon_) {
        // Provably eventless tick (the horizon was cached from this
        // very state and every external change drops it): just count
        // the cycle; flushFastForward() settles the books in bulk.
        if (ffPending_ == 0)
            ffWindowStart_ = now;
        ++ffPending_;
        return;
    }
    flushFastForward();
    now_ = now;

    // 1. Memory completions (unblocks warps for this cycle's issue).
    ldst_.tick(now);

    // Trace replay: inject the records due this cycle. After the LDST
    // tick, so a record stamped cycle c enters the queue at c and first
    // reaches injectOne at c + 1 — the same cadence as a functional
    // issue at c.
    if (replayMode_) {
        while (replayCursor_ < replay_->size() &&
               replayBase_ + (*replay_)[replayCursor_].cycle <= now) {
            ldst_.replayInject((*replay_)[replayCursor_]);
            ++replayCursor_;
        }
    }

    // 2. ALU/SFU/shared writebacks that mature this cycle.
    while (!wbQueue_.empty() && wbQueue_.top().at <= now) {
        const Writeback wb = wbQueue_.top();
        wbQueue_.pop();
        ctas_[wb.vcta].warps[wb.warpInCta].scoreboard().release(wb.reg);
        refreshWarp(wb.vcta, wb.warpInCta);
    }

    // 3. Virtual Thread state machine: swap completions and decisions,
    //    based on the state warps are in *before* this cycle's issue.
    vt_.tick(now);

    if (oracleEnabled())
        verifyReadySets(now);

    // 4. Issue: each scheduler's policy probes the warps in its ready
    //    bits and picks one; a scheduler slot that issues nothing is
    //    attributed from one walk of its ready bits.
    const StallBreakdown before_issue = stalls_;
    IssueBudgets budgets{config_.aluThroughputPerSm,
                         config_.sfuThroughputPerSm,
                         config_.ldstThroughputPerSm};
    for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
        IssueProbe probe(*this, s, now, budgets);
        const std::uint64_t key = schedulers_[s]->pick(probe);
        if (key == noCandidate) {
            chargeBubble(classifyIssueBubble(s, now), 1);
            continue;
        }
        VirtualCta &cta = ctas_[probe.slot];
        VTSIM_ASSERT(key == cta.age * 256 + probe.warp,
                     "policy picked a warp the probe did not report");
        chargeBudget(*probe.inst, budgets);
        ++stalls_.issued;
        issueWarp(cta, probe.slot, cta.warps[probe.warp], *probe.inst, now);
    }

    // 5. DYNCTA-style throttling: feed this cycle's observation into the
    //    epoch machinery and apply the (possibly new) active-CTA cap.
    if (throttler_) {
        const bool issued = stalls_.issued != before_issue.issued;
        const bool mem = stalls_.memStall != before_issue.memStall;
        throttler_->sample(issued, !issued && mem);
        vt_.setActiveCap(throttler_->cap());
    }

    // 6. A tick that issued nothing is a candidate for a lazy window:
    //    cache how far the following ticks are provably inert. This is
    //    nextEventCycle(now + 1) minus its warp scan, which is provably
    //    empty here: readyAt is only ever set to cycle+1 at an issue or
    //    barrier release, so after a no-issue tick no live warp has
    //    readyAt > now — and none could issue (the sweep found no
    //    candidates; the one state that can flip by now + 1, the shared
    //    memory port, is covered by the portReadyAt term below).
    if (config_.fastForwardEnabled &&
        stalls_.issued == before_issue.issued) {
        Cycle next = ldst_.nextEventCycle(now + 1);
        if (!wbQueue_.empty())
            next = std::min(next, std::max(now + 1, wbQueue_.top().at));
        if (shmem_.portReadyAt() > now)
            next = std::min(next, shmem_.portReadyAt());
        if (throttler_)
            next = std::min(next,
                            throttler_->epochBoundaryCycle(now + 1));
        if (replayMode_ && replayCursor_ < replay_->size()) {
            next = std::min(next,
                            std::max(now + 1,
                                     replayBase_ +
                                         (*replay_)[replayCursor_].cycle));
        }
        ffHorizon_ = std::min(next, vt_.nextEventCycle(now + 1));
    } else {
        ffHorizon_ = 0;
    }
}

SmCore::BubbleKind
SmCore::classifyIssueBubble(std::uint32_t scheduler, Cycle now) const
{
    if (sched_.alive[scheduler] == 0)
        return BubbleKind::Idle;
    // A ready off-chip warp that cannot issue is mem-blocked; off-chip
    // warps missing from the ready bits (barrier or hazard blocked)
    // cannot issue either, so the counter covers them unvisited.
    bool mem_blocked = false;
    std::uint32_t ready_offchip = 0;
    for (const ActiveCta &a : activeByAge_) {
        const VirtualCta &cta = ctas_[a.slot];
        anyBit(readyOf(a.slot) + scheduler * readyWords_, readyWords_,
               readyWords_, [&](std::uint32_t w) {
                   const WarpContext &warp = cta.warps[w];
                   if (warp.pendingOffChip() == 0)
                       return false;
                   ++ready_offchip;
                   const Instruction &inst =
                       kernelOf(cta)->at(warp.stack().pc());
                   if (warp.readyAt() > now ||
                       (inst.isGlobalMem() && !ldst_.canAccept()) ||
                       (inst.isSharedMem() && !shmem_.canAccept(now))) {
                       mem_blocked = true;
                   }
                   return false;
               });
    }
    if (mem_blocked || sched_.issuableOffchip[scheduler] > ready_offchip)
        return BubbleKind::Mem;
    const std::uint32_t issuable_alive =
        sched_.alive[scheduler] - sched_.frozenAlive[scheduler];
    if (issuable_alive == sched_.issuableBarrier[scheduler] &&
        sched_.frozenAlive[scheduler] == 0) {
        return BubbleKind::Barrier;
    }
    if (sched_.frozenAlive[scheduler] > 0)
        return BubbleKind::Swap;
    return BubbleKind::Short;
}

void
SmCore::chargeBubble(BubbleKind kind, std::uint64_t n)
{
    switch (kind) {
      case BubbleKind::Idle: stalls_.idle += n; break;
      case BubbleKind::Mem: stalls_.memStall += n; break;
      case BubbleKind::Barrier: stalls_.barrierStall += n; break;
      case BubbleKind::Swap: stalls_.swapStall += n; break;
      case BubbleKind::Short: stalls_.shortStall += n; break;
    }
}

Cycle
SmCore::nextEventCycle(Cycle now)
{
    // A valid cached horizon IS the answer — and with skipped ticks
    // deferred, recomputing from unsettled state would be wrong.
    if (now < ffHorizon_)
        return ffHorizon_;
    flushFastForward();
    return computeNextEvent(now);
}

Cycle
SmCore::nextEventCycleFresh(Cycle now)
{
    // The oracle's reference answer: settle the books, then recompute
    // from scratch — the cached lazy-window horizon must never be
    // consulted here, since it is exactly what is being checked.
    flushFastForward();
    return computeNextEvent(now);
}

Cycle
SmCore::computeNextEvent(Cycle now)
{
    Cycle next = ldst_.nextEventCycle(now);
    if (!wbQueue_.empty())
        next = std::min(next, std::max(now, wbQueue_.top().at));
    if (shmem_.portReadyAt() > now)
        next = std::min(next, shmem_.portReadyAt());
    if (throttler_)
        next = std::min(next, throttler_->epochBoundaryCycle(now));
    next = std::min(next, vt_.nextEventCycle(now));
    if (replayMode_ && replayCursor_ < replay_->size()) {
        next = std::min(next,
                        std::max(now, replayBase_ +
                                          (*replay_)[replayCursor_].cycle));
    }

    // Warps of issuable CTAs: a short dependence maturing is an event;
    // a warp that could issue right now means no skipping at all. Warps
    // blocked on hazards, barriers, or off-chip memory unblock only via
    // writeback/NoC events already accounted above or globally — so the
    // ready bits alone carry the warp term. (A hazard-blocked warp's
    // readyAt is no event either: when the release event lands and
    // publishes it, a still-future readyAt re-enters the horizon here.)
    for (const ActiveCta &a : activeByAge_) {
        const VirtualCta &cta = ctas_[a.slot];
        const bool issuable_now = anyBit(
            readyOf(a.slot), readyStride_, readyWords_,
            [&](std::uint32_t w) {
                const WarpContext &warp = cta.warps[w];
                if (warp.readyAt() > now) {
                    next = std::min(next, warp.readyAt());
                    return false;
                }
                const Instruction &inst =
                    kernelOf(cta)->at(warp.stack().pc());
                return (!inst.isGlobalMem() || ldst_.canAccept()) &&
                       (!inst.isSharedMem() || shmem_.canAccept(now));
            });
        if (issuable_now)
            return now;
    }
    return next;
}

void
SmCore::settleTo(Cycle cycle)
{
    flushFastForward();
    // now_ is the last accounted cycle; bring the books to cycle - 1
    // (the horizon cycle itself is the next real tick's).
    if (cycle > now_ + 1) {
        accountIdleCycles(now_ + 1, cycle - now_ - 1);
        now_ = cycle - 1;
    }
}

void
SmCore::flushFastForward()
{
    if (ffPending_ == 0)
        return;
    const std::uint64_t n = ffPending_;
    ffPending_ = 0;
    accountIdleCycles(ffWindowStart_, n);
    // The lazily counted ticks are now fully accounted: advance the
    // local clock over them so settleTo() can measure further gaps.
    now_ = ffWindowStart_ + n - 1;
}

void
SmCore::onExternalEvent()
{
    flushFastForward();
    ffHorizon_ = 0;
}

void
SmCore::accountIdleCycles(Cycle now, std::uint64_t n)
{
    // Mirror tick()'s order over n empty cycles: LDST sampling, the VT
    // machine's sampling and streaks, the per-scheduler bubble
    // classification (constant across the window by construction), and
    // the throttler's epoch observations.
    ldst_.settleTo(now + n);
    vt_.fastForwardIdle(n);
    bool any_mem = false;
    for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
        const BubbleKind kind = classifyIssueBubble(s, now);
        chargeBubble(kind, n);
        any_mem = any_mem || kind == BubbleKind::Mem;
    }
    if (throttler_) {
        throttler_->sampleIdleN(n, any_mem);
        vt_.setActiveCap(throttler_->cap());
    }
}

void
SmCore::issueWarp(VirtualCta &cta, VirtualCtaId slot, WarpContext &warp,
                  const Instruction &inst, Cycle now)
{
    const Pc pc = warp.stack().pc();
    const ActiveMask mask = warp.stack().activeMask();
    const std::uint32_t w = warp.warpInCta();

    if (traceJson_ && traceJson_->enabled(telemetry::TraceCategory::Issue)) {
        traceJson_->instant(id_, slot, now,
                            detail::concat("w", w, " pc ", pc, " [",
                                           mask.count(), " lanes] ",
                                           disassemble(inst)),
                            "issue");
    }
    // Functional execution: the instruction's pre-decoded micro-op.
    ExecResult &res = execScratch_;
    executeMicroInto(kernelOf(cta)->micro(), pc, w, mask, cta.func, *gmem_,
                     *launchOf(cta), res);
    warp.countIssue();
    ++instructionsIssued_;
    threadInstructions_ += mask.count();
    ++gridInstructions_[cta.grid];
    gridThreadInstructions_[cta.grid] += mask.count();
    warp.setReadyAt(now + 1);

    switch (inst.funcUnit()) {
      case FuncUnit::Control:
        if (inst.isBranch()) {
            warp.stack().branch(inst, pc, res.branchTaken);
            maxSimtDepth_ = std::max(maxSimtDepth_,
                                     warp.stack().maxDepth());
        } else if (inst.isBarrier()) {
            if (mtrace_)
                mtrace_->barrier(now, id_);
            warp.stack().advance();
            warp.setAtBarrier(true);
            ++cta.issue.barrierBySched[warp.schedId()];
            ++sched_.issuableBarrier[warp.schedId()];
            barriers_.arrive(slot, w);
            maybeReleaseBarrier(slot, now);
        } else { // EXIT
            warp.stack().exitActiveLanes();
            if (warp.done()) {
                retireWarpCounters(cta, warp);
                refreshWarp(slot, w); // Retract before warps can clear.
                if (cta.issue.warpsAlive == 0) {
                    finishCta(slot, now);
                    return;
                }
                maybeReleaseBarrier(slot, now);
            }
        }
        break;

      case FuncUnit::Alu:
      case FuncUnit::Sfu: {
        const std::uint32_t latency = inst.funcUnit() == FuncUnit::Sfu
                                          ? config_.sfuLatency
                                          : config_.aluLatency;
        if (inst.hasDst()) {
            warp.scoreboard().reserve(inst.dst, false);
            wbQueue_.push({now + latency, slot, w, inst.dst});
        }
        warp.stack().advance();
        break;
      }

      case FuncUnit::Mem:
        if (inst.isSharedMem()) {
            std::uint32_t passes =
                sharedMemPasses(res.sharedAccesses,
                                config_.sharedMemBanks);
            if (passes == 0)
                passes = 1;
            const Cycle done = shmem_.access(passes, now);
            if (inst.hasDst()) {
                warp.scoreboard().reserve(inst.dst, false);
                wbQueue_.push({done, slot, w, inst.dst});
            }
        } else if (!res.globalAccesses.empty()) {
            if (inst.hasDst())
                warp.scoreboard().reserve(inst.dst, true);
            if (epochLogging_) {
                epochMemLog_.push_back({now, slot, w, inst.op,
                                        inst.hasDst() ? inst.dst : noReg,
                                        res.globalAccesses});
            }
            ldst_.issueGlobal(slot, w, inst, res.globalAccesses,
                              cta.grid);
        }
        warp.stack().advance();
        break;
    }
    // The issued warp's PC, scoreboard, or barrier flag changed:
    // re-derive its ready-set membership.
    refreshWarp(slot, w);
}

void
SmCore::retireWarpCounters(VirtualCta &cta, const WarpContext &warp)
{
    // Only an issuing warp can retire, so its CTA is Active: its alive
    // count moves out of the plain aggregate, never the frozen one.
    VTSIM_ASSERT(cta.issue.warpsAlive > 0, "alive underflow");
    --cta.issue.warpsAlive;
    const std::uint32_t sched = warp.schedId();
    VTSIM_ASSERT(cta.issue.aliveBySched[sched] > 0,
                 "per-scheduler alive underflow");
    --cta.issue.aliveBySched[sched];
    VTSIM_ASSERT(sched_.alive[sched] > 0, "aggregate alive underflow");
    --sched_.alive[sched];
    if (warp.pendingOffChip() > 0) {
        --cta.issue.offchipBySched[sched];
        --sched_.issuableOffchip[sched];
    }
}

void
SmCore::maybeReleaseBarrier(VirtualCtaId slot, Cycle now)
{
    VirtualCta &cta = ctas_[slot];
    if (!barriers_.shouldRelease(slot, cta.issue.warpsAlive))
        return;
    if (traceJson_ &&
        traceJson_->enabled(telemetry::TraceCategory::Barrier)) {
        traceJson_->instant(id_, slot, now, "barrier-release", "barrier");
    }
    const bool issuable = vt_.isIssuable(slot);
    barriers_.releaseInto(slot, barrierScratch_);
    for (std::uint32_t w : barrierScratch_) {
        cta.warps[w].setAtBarrier(false);
        --cta.issue.barrierBySched[cta.warps[w].schedId()];
        if (issuable)
            --sched_.issuableBarrier[cta.warps[w].schedId()];
        cta.warps[w].setReadyAt(now + 1);
        refreshWarp(slot, w);
    }
}

void
SmCore::finishCta(VirtualCtaId slot, Cycle now)
{
    VirtualCta &cta = ctas_[slot];
    for (const WarpContext &warp : cta.warps) {
        VTSIM_ASSERT(warp.pendingOffChip() == 0,
                     "CTA retired with off-chip transactions in flight");
        maxSimtDepth_ = std::max(maxSimtDepth_, warp.stack().maxDepth());
    }
    // All warps retired, so every counter and ready bit of this CTA is
    // already zero; it only leaves the age order (VT fires no flip for a
    // finished CTA).
    activeByAge_.erase(activeFrom(cta.age));
    vt_.onCtaFinished(slot, now);
    barriers_.ctaFinished(slot);
    cta.valid = false;
    cta.warps.clear();
    cta.issue = {};
    freeSlots_.push_back(slot);
    VTSIM_ASSERT(residentCount_ > 0, "resident underflow");
    --residentCount_;
    ++ctasCompleted_;
    ++gridCtasCompleted_[cta.grid];
}

bool
SmCore::idle() const
{
    return residentCount_ == 0 && ldst_.idle() && wbQueue_.empty() &&
           (!replayMode_ || replayCursor_ == replay_->size());
}

void
SmCore::loadComplete(VirtualCtaId vcta, std::uint32_t warp_in_cta,
                     RegIndex dst)
{
    if (replayMode_) {
        // Replay pendings carry a sentinel CTA and no destination:
        // there is no warp to release, only the horizon to drop.
        onExternalEvent();
        return;
    }
    VTSIM_ASSERT(vcta < ctas_.size() && ctas_[vcta].valid,
                 "load completion for retired CTA");
    onExternalEvent();
    if (dst != noReg) {
        ctas_[vcta].warps[warp_in_cta].scoreboard().release(dst);
        refreshWarp(vcta, warp_in_cta);
    }
}

void
SmCore::offChipIssued(VirtualCtaId vcta, std::uint32_t warp_in_cta)
{
    onExternalEvent();
    if (replayMode_)
        return;
    VirtualCta &cta = ctas_[vcta];
    WarpContext &warp = cta.warps[warp_in_cta];
    warp.addOffChip();
    ++cta.issue.pendingOffChipTotal;
    if (warp.pendingOffChip() == 1 && !warp.done()) {
        ++cta.issue.offchipBySched[warp.schedId()];
        if (vt_.isIssuable(vcta))
            ++sched_.issuableOffchip[warp.schedId()];
    }
}

void
SmCore::responseArriving(Cycle)
{
    onExternalEvent();
}

void
SmCore::offChipReturned(VirtualCtaId vcta, std::uint32_t warp_in_cta)
{
    onExternalEvent();
    if (replayMode_)
        return;
    VirtualCta &cta = ctas_[vcta];
    WarpContext &warp = cta.warps[warp_in_cta];
    warp.removeOffChip();
    VTSIM_ASSERT(cta.issue.pendingOffChipTotal > 0,
                 "off-chip aggregate underflow");
    --cta.issue.pendingOffChipTotal;
    if (warp.pendingOffChip() == 0 && !warp.done()) {
        --cta.issue.offchipBySched[warp.schedId()];
        if (vt_.isIssuable(vcta))
            --sched_.issuableOffchip[warp.schedId()];
    }
}

bool
SmCore::ctaFullyStalled(VirtualCtaId id) const
{
    // Issuable ignoring the ports means warpReadyMember && readyAt <=
    // now, and the VT manager polls before this cycle's issue, when no
    // warp has readyAt > now (readyAt is only ever set to cycle + 1, by
    // an issue or a barrier release; verifyReadySets asserts it). So a
    // CTA is fully stalled iff it has no ready bit.
    const std::uint64_t *words = readyOf(id);
    for (std::uint32_t k = 0; k < readyStride_; ++k)
        if (words[k] != 0)
            return false;
    return true;
}

bool
SmCore::ctaAnyWarpLongStalled(VirtualCtaId id) const
{
    const VirtualCta &cta = ctas_[id];
    VTSIM_ASSERT(cta.valid && vt_.isIssuable(id),
                 "stall poll of a CTA that is not Active");
    // By the same identity an off-chip warp is long-stalled unless its
    // ready bit is set: compare the ready off-chip warps against all of
    // the CTA's off-chip warps.
    std::uint32_t offchip_total = 0;
    for (const std::uint32_t n : cta.issue.offchipBySched)
        offchip_total += n;
    if (offchip_total == 0)
        return false;
    std::uint32_t offchip_ready = 0;
    anyBit(readyOf(id), readyStride_, readyWords_,
           [&](std::uint32_t w) {
        offchip_ready += cta.warps[w].pendingOffChip() > 0 ? 1 : 0;
        return false;
    });
    return offchip_ready < offchip_total;
}

std::uint32_t
SmCore::ctaPendingOffChip(VirtualCtaId id) const
{
    const VirtualCta &cta = ctas_[id];
    VTSIM_ASSERT(cta.valid, "query on retired CTA");
    return cta.issue.pendingOffChipTotal;
}

void
SmCore::refreshWarp(VirtualCtaId slot, std::uint32_t w)
{
    VirtualCta &cta = ctas_[slot];
    if (!cta.valid)
        return;
    const WarpContext &warp = cta.warps[w];
    const std::uint64_t bit = 1ull << (w % 64);
    std::uint64_t &word = readyOf(slot)[warp.schedId() * readyWords_ + w / 64];
    if (vt_.isIssuable(slot) && warpReadyMember(cta, warp))
        word |= bit;
    else
        word &= ~bit;
}

void
SmCore::onCtaIssuableChanged(VirtualCtaId id, bool issuable)
{
    VirtualCta &cta = ctas_[id];
    VTSIM_ASSERT(cta.valid, "issuability flip of retired CTA ", id);
    // Flips are rare (activation, swap): re-sum rather than move each
    // counter between the frozen and issuable aggregates.
    sched_ = sumSchedulers();
    const auto pos = activeFrom(cta.age);
    if (issuable) {
        activeByAge_.insert(pos, {cta.age, id});
        for (std::uint32_t w = 0; w < cta.warps.size(); ++w)
            refreshWarp(id, w);
    } else {
        activeByAge_.erase(pos);
        std::fill_n(readyOf(id), readyStride_, 0);
    }
}

void
SmCore::rebindGrid(GridId grid, const Kernel &kernel,
                   const LaunchParams &launch, GlobalMemory &gmem)
{
    if (grid >= grids_.size())
        grids_.resize(grid + 1);
    grids_[grid].kernel = &kernel;
    grids_[grid].launch = &launch;
    gmem_ = &gmem;
    rebuildIssueState();
}

void
SmCore::reset()
{
    grids_.clear();
    gmem_ = nullptr;
    ldst_.reset();
    shmem_.reset();
    barriers_.reset();
    vt_.reset();
    if (throttler_)
        throttler_->reset();
    for (auto &sched : schedulers_)
        sched->reset();
    ctas_.clear();
    freeSlots_.clear();
    residentCount_ = 0;
    nextCtaAge_ = 0;
    barrierScratch_.clear();
    readyBits_.clear();
    activeByAge_.clear();
    sched_ = sumSchedulers();
    wbQueue_ = {};
    now_ = 0;
    maxSimtDepth_ = 0;
    ffHorizon_ = 0;
    ffWindowStart_ = 0;
    ffPending_ = 0;
    epochLogging_ = false;
    epochMemLog_.clear();
    epochOwner_ = {};
    replayMode_ = false;
    replay_ = nullptr;
    replayCursor_ = 0;
    replayBase_ = 0;
    instructionsIssued_.reset();
    threadInstructions_.reset();
    ctasCompleted_.reset();
    for (GridId g = 0; g < maxGrids; ++g) {
        gridInstructions_[g].reset();
        gridThreadInstructions_[g].reset();
        gridCtasCompleted_[g].reset();
    }
    stalls_ = {};
}

void
SmCore::save(Serializer &ser) const
{
    VTSIM_ASSERT(ffPending_ == 0,
                 "checkpoint with unsettled lazy-tick window");
    const std::size_t sec = ser.beginSection("smcr");
    ser.put<std::uint64_t>(ctas_.size());
    for (const VirtualCta &cta : ctas_) {
        ser.put(cta.valid);
        ser.put(cta.grid);
        ser.put(cta.age);
        cta.func.save(ser);
        ser.put<std::uint64_t>(cta.warps.size());
        for (const WarpContext &warp : cta.warps)
            warp.save(ser);
    }
    ser.putVec(freeSlots_);
    ser.put(residentCount_);
    ser.put(nextCtaAge_);
    auto wbs = wbQueue_;
    ser.put<std::uint64_t>(wbs.size());
    while (!wbs.empty()) {
        const Writeback &wb = wbs.top();
        ser.put(wb.at);
        ser.put(wb.vcta);
        ser.put(wb.warpInCta);
        ser.put(wb.reg);
        wbs.pop();
    }
    ser.put(now_);
    ser.put(maxSimtDepth_);
    // ffHorizon_ is deliberately not checkpointed (see the interconnect
    // and partition save() notes): it caches tick-cadence history, which
    // differs between sequential and sharded runs of the same state.
    saveStat(ser, instructionsIssued_);
    saveStat(ser, threadInstructions_);
    saveStat(ser, ctasCompleted_);
    for (GridId g = 0; g < maxGrids; ++g) {
        saveStat(ser, gridInstructions_[g]);
        saveStat(ser, gridThreadInstructions_[g]);
        saveStat(ser, gridCtasCompleted_[g]);
    }
    static_assert(std::is_trivially_copyable_v<StallBreakdown>);
    ser.put(stalls_);
    // The replay slice itself is not machine state (it is reloaded from
    // the trace file on restore); the mode, cursor and base are.
    ser.put<std::uint8_t>(replayMode_);
    ser.put(replayCursor_);
    ser.put(replayBase_);
    for (const auto &sched : schedulers_)
        sched->save(ser);
    ser.endSection(sec);
    ldst_.save(ser);
    shmem_.save(ser);
    barriers_.save(ser);
    vt_.save(ser);
    if (throttler_)
        throttler_->save(ser);
}

void
SmCore::restore(Deserializer &des)
{
    des.beginSection("smcr");
    const auto cta_count = des.get<std::uint64_t>();
    ctas_.assign(cta_count, VirtualCta());
    for (VirtualCta &cta : ctas_) {
        des.get(cta.valid);
        des.get(cta.grid);
        des.get(cta.age);
        cta.func.restore(des);
        const auto warp_count = des.get<std::uint64_t>();
        cta.warps.assign(warp_count, WarpContext());
        for (WarpContext &warp : cta.warps)
            warp.restore(des);
    }
    des.getVec(freeSlots_);
    des.get(residentCount_);
    des.get(nextCtaAge_);
    wbQueue_ = {};
    const auto wb_count = des.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < wb_count; ++i) {
        Writeback wb;
        des.get(wb.at);
        des.get(wb.vcta);
        des.get(wb.warpInCta);
        des.get(wb.reg);
        wbQueue_.push(wb);
    }
    des.get(now_);
    des.get(maxSimtDepth_);
    ffHorizon_ = 0;
    ffWindowStart_ = 0;
    ffPending_ = 0;
    restoreStat(des, instructionsIssued_);
    restoreStat(des, threadInstructions_);
    restoreStat(des, ctasCompleted_);
    for (GridId g = 0; g < maxGrids; ++g) {
        restoreStat(des, gridInstructions_[g]);
        restoreStat(des, gridThreadInstructions_[g]);
        restoreStat(des, gridCtasCompleted_[g]);
    }
    des.get(stalls_);
    replayMode_ = des.get<std::uint8_t>() != 0;
    des.get(replayCursor_);
    des.get(replayBase_);
    // replay_ is deliberately left as-is: an in-place restore (the
    // shard oracle's epoch re-run) keeps the already-bound slice, while
    // a cross-process restore starts null and Gpu::replayTrace rebinds
    // it via resumeReplay().
    for (auto &sched : schedulers_)
        sched->restore(des);
    des.endSection();
    ldst_.restore(des);
    shmem_.restore(des);
    barriers_.restore(des);
    vt_.restore(des);
    if (throttler_)
        throttler_->restore(des);
    // A restore into a fresh Gpu has no kernels bound yet, so the ready
    // bits come out clear here; rebindGrid() rebuilds them.
    rebuildIssueState();
}

void
SmCore::rebuildIssueState()
{
    readyBits_.assign(ctas_.size() * readyStride_, 0);
    for (VirtualCtaId slot = 0; slot < ctas_.size(); ++slot)
        ctas_[slot].issue = scanCta(slot, readyOf(slot));
    sched_ = sumSchedulers();
    activeByAge_ = scanActiveByAge();
}

SmCore::CtaIssueState
SmCore::scanCta(VirtualCtaId slot, std::uint64_t *ready) const
{
    const VirtualCta &cta = ctas_[slot];
    CtaIssueState is;
    std::fill_n(ready, readyStride_, 0);
    if (!cta.valid)
        return is;
    const std::uint32_t scheds = config_.numSchedulers;
    is.aliveBySched.assign(scheds, 0);
    is.barrierBySched.assign(scheds, 0);
    is.offchipBySched.assign(scheds, 0);
    const bool publish = vt_.isIssuable(slot) && cta.grid < grids_.size() &&
                         grids_[cta.grid].kernel != nullptr;
    for (std::uint32_t w = 0; w < cta.warps.size(); ++w) {
        const WarpContext &warp = cta.warps[w];
        is.pendingOffChipTotal += warp.pendingOffChip();
        if (warp.done())
            continue;
        const std::uint32_t s = warp.schedId();
        ++is.warpsAlive;
        ++is.aliveBySched[s];
        is.barrierBySched[s] += warp.atBarrier() ? 1 : 0;
        is.offchipBySched[s] += warp.pendingOffChip() > 0 ? 1 : 0;
        if (publish && warpReadyMember(cta, warp))
            ready[s * readyWords_ + w / 64] |= 1ull << (w % 64);
    }
    return is;
}

SmCore::SchedIssueState
SmCore::sumSchedulers() const
{
    const std::vector<std::uint32_t> zero(config_.numSchedulers, 0);
    SchedIssueState sum{zero, zero, zero, zero};
    for (VirtualCtaId slot = 0; slot < ctas_.size(); ++slot) {
        if (!ctas_[slot].valid)
            continue;
        const CtaIssueState &is = ctas_[slot].issue;
        const bool issuable = vt_.isIssuable(slot);
        for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
            sum.alive[s] += is.aliveBySched[s];
            if (!issuable) {
                sum.frozenAlive[s] += is.aliveBySched[s];
                continue;
            }
            sum.issuableBarrier[s] += is.barrierBySched[s];
            sum.issuableOffchip[s] += is.offchipBySched[s];
        }
    }
    return sum;
}

std::vector<SmCore::ActiveCta>
SmCore::scanActiveByAge() const
{
    std::vector<ActiveCta> order;
    for (VirtualCtaId slot = 0; slot < ctas_.size(); ++slot)
        if (ctas_[slot].valid && vt_.isIssuable(slot))
            order.push_back({ctas_[slot].age, slot});
    std::sort(order.begin(), order.end());
    return order;
}

void
SmCore::verifyReadySets(Cycle now) const
{
    std::vector<std::uint64_t> ready(readyStride_);
    for (VirtualCtaId slot = 0; slot < ctas_.size(); ++slot) {
        const VirtualCta &cta = ctas_[slot];
        VTSIM_ASSERT(cta.issue == scanCta(slot, ready.data()) &&
                         std::equal(ready.begin(), ready.end(),
                                    readyOf(slot)),
                     "issue state of cta ", slot,
                     " diverged from a full scan");
        for (const WarpContext &warp : cta.warps) {
            VTSIM_ASSERT(warp.done() || warp.readyAt() <= now, "cta ", slot,
                         " warp ", warp.warpInCta(), " has readyAt ",
                         warp.readyAt(), " > now ", now, " before issue");
        }
    }
    VTSIM_ASSERT(sched_ == sumSchedulers(),
                 "per-scheduler sums diverged from the CTAs' issue state");
    VTSIM_ASSERT(activeByAge_ == scanActiveByAge(),
                 "Active CTA age order diverged from a full scan");
}

} // namespace vtsim
