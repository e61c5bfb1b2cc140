#include "core/virtual_thread.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/serialize_util.hh"
#include "telemetry/trace_json.hh"

namespace vtsim {

std::string
toString(CtaState state)
{
    switch (state) {
      case CtaState::Active: return "active";
      case CtaState::SwappingOut: return "swapping-out";
      case CtaState::Inactive: return "inactive";
      case CtaState::SwappingIn: return "swapping-in";
    }
    return "?";
}

VirtualThreadManager::VirtualThreadManager(const GpuConfig &config,
                                           VtCtaQuery &query, SmId sm_id)
    : config_(config), query_(query), smId_(sm_id),
      stats_("sm" + std::to_string(sm_id) + ".vt")
{
    stats_.addCounter("swap_outs", &swapOuts_, "CTA swap-outs");
    stats_.addCounter("swap_ins", &swapIns_, "CTA swap-ins");
    for (GridId g = 0; g < maxGrids; ++g) {
        const std::string p = "grid" + std::to_string(g);
        stats_.addCounter(p + ".swap_outs", &gridSwapOuts_[g],
                          "CTA swap-outs of grid " + std::to_string(g));
        stats_.addCounter(p + ".swap_ins", &gridSwapIns_[g],
                          "CTA swap-ins of grid " + std::to_string(g));
    }
    stats_.addCounter("fresh_activations", &freshActivations_,
                      "CTAs activated straight from launch");
    stats_.addCounter("swap_in_not_ready", &swapInNotReady_,
                      "swap-ins of CTAs with data still outstanding");
    stats_.addScalar("resident_ctas", &residentSamples_,
                     "resident CTAs sampled per cycle");
    stats_.addScalar("active_ctas", &activeSamples_,
                     "active CTAs sampled per cycle");
    stats_.addHistogram("swap_stall_streak", &swapStallStreak_,
                        "victim stall streak at swap-out (cycles)");
}

void
VirtualThreadManager::traceStateChange(VirtualCtaId id, CtaState state,
                                       Cycle now)
{
    if (!traceJson_)
        return;
    traceJson_->end(smId_, id, now);
    traceJson_->begin(smId_, id, now, toString(state), "vt");
}

void
VirtualThreadManager::configureGrid(GridId grid,
                                    const CtaFootprint &footprint)
{
    VTSIM_ASSERT(grid < maxGrids, "grid id ", grid, " out of range");
    VTSIM_ASSERT(residentCount_ == 0,
                 "kernel reconfigured with CTAs resident");
    VTSIM_ASSERT(footprint.warpsPerCta > 0 && footprint.threadsPerCta > 0,
                 "degenerate CTA footprint");
    fps_[grid] = footprint;
}

bool
VirtualThreadManager::activeSlotFreeFor(const CtaFootprint &fp) const
{
    return activeCtas_ < std::min(config_.effMaxCtasPerSm(),
                                  dynamicCap_) &&
           warpsActive_ + fp.warpsPerCta <= config_.effMaxWarpsPerSm() &&
           threadsActive_ + fp.threadsPerCta <=
               config_.effMaxThreadsPerSm();
}

bool
VirtualThreadManager::anyFootprintFits() const
{
    // Unconfigured grids (warpsPerCta == 0) own no CTAs.
    for (const CtaFootprint &fp : fps_)
        if (fp.warpsPerCta > 0 && activeSlotFreeFor(fp))
            return true;
    return false;
}

bool
VirtualThreadManager::canAdmit(GridId grid) const
{
    const CtaFootprint &fp = fps_[grid];
    VTSIM_ASSERT(fp.warpsPerCta > 0, "canAdmit before configureGrid");
    // Capacity limit binds in both machines: registers and shared memory
    // are physically allocated per resident CTA.
    if (regsInUse_ + fp.regsPerCta > config_.registersPerSm)
        return false;
    if (sharedInUse_ + fp.sharedPerCta > config_.sharedMemPerSm)
        return false;

    if (!config_.vtEnabled) {
        // Baseline: the scheduling limit also gates admission.
        return activeSlotFreeFor(fp);
    }
    // VT: admit past the scheduling limit, up to the virtual-CTA budget.
    const std::uint32_t limit =
        config_.vtMaxVirtualCtasPerSm
            ? config_.vtMaxVirtualCtasPerSm
            : std::numeric_limits<std::uint32_t>::max();
    return residentCount_ < limit;
}

void
VirtualThreadManager::activate(VirtualCtaId id, Cycle now)
{
    CtaRec &rec = ctas_[id];
    const CtaFootprint &fp = fps_[rec.grid];
    VTSIM_ASSERT(activeSlotFreeFor(fp), "activate without a free slot");
    ++activeCtas_;
    warpsActive_ += fp.warpsPerCta;
    threadsActive_ += fp.threadsPerCta;
    rec.stalledFor = 0;
    if (rec.everSwapped) {
        // Restoring saved scheduling state costs the swap-in latency.
        rec.state = CtaState::SwappingIn;
        rec.transitionAt = now + config_.vtSwapInLatency;
        nextTransition_ = std::min(nextTransition_, rec.transitionAt);
        ++swapIns_;
        ++gridSwapIns_[rec.grid];
        traceStateChange(id, CtaState::SwappingIn, now);
    } else {
        rec.state = CtaState::Active;
        ++freshActivations_;
        traceStateChange(id, CtaState::Active, now);
        query_.onCtaIssuableChanged(id, true);
    }
}

void
VirtualThreadManager::releaseActiveSlot(const CtaFootprint &fp)
{
    VTSIM_ASSERT(activeCtas_ > 0, "active slot underflow");
    --activeCtas_;
    warpsActive_ -= fp.warpsPerCta;
    threadsActive_ -= fp.threadsPerCta;
}

void
VirtualThreadManager::onAdmit(VirtualCtaId id, Cycle now, GridId grid)
{
    VTSIM_ASSERT(canAdmit(grid), "onAdmit without canAdmit");
    if (id >= ctas_.size())
        ctas_.resize(id + 1);
    VTSIM_ASSERT(!ctas_[id].resident, "CTA ", id, " already resident");

    regsInUse_ += fps_[grid].regsPerCta;
    sharedInUse_ += fps_[grid].sharedPerCta;

    CtaRec &rec = ctas_[id];
    rec = CtaRec{};
    rec.resident = true;
    rec.age = nextAge_++;
    rec.state = CtaState::Inactive;
    rec.grid = grid;
    ++residentCount_;

    VTSIM_TRACE(TraceFlag::Cta, now, stats_.name(), "admit cta ", id,
                " (grid ", grid, ", resident ", residentCount_, ")");
    if (traceJson_) {
        traceJson_->instant(smId_, id, now, "admit", "cta");
        traceJson_->begin(smId_, id, now, toString(rec.state), "vt");
    }
    if (!activationBlocked_[grid] && activeSlotFreeFor(fps_[grid]))
        activate(id, now);
}

void
VirtualThreadManager::onCtaFinished(VirtualCtaId id, Cycle now)
{
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "finish of unknown CTA ", id);
    VTSIM_ASSERT(ctas_[id].state == CtaState::Active,
                 "CTA ", id, " finished while ", toString(ctas_[id].state));
    VTSIM_TRACE(TraceFlag::Cta, now, stats_.name(), "finish cta ", id);
    if (traceJson_) {
        traceJson_->end(smId_, id, now);
        traceJson_->instant(smId_, id, now, "finish", "cta");
    }
    const CtaFootprint &fp = fps_[ctas_[id].grid];
    releaseActiveSlot(fp);
    regsInUse_ -= fp.regsPerCta;
    sharedInUse_ -= fp.sharedPerCta;
    ctas_[id].resident = false;
    --residentCount_;

    // The freed slot goes to the best inactive CTA right away.
    const VirtualCtaId incoming = pickSwapIn(false);
    if (incoming != invalidId &&
        activeSlotFreeFor(fps_[ctas_[incoming].grid]))
        activate(incoming, now);
}

CtaState
VirtualThreadManager::state(VirtualCtaId id) const
{
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "state() of unknown CTA ", id);
    return ctas_[id].state;
}

GridId
VirtualThreadManager::gridOf(VirtualCtaId id) const
{
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "gridOf() of unknown CTA ", id);
    return ctas_[id].grid;
}

void
VirtualThreadManager::forceSwapOut(VirtualCtaId id, Cycle now)
{
    VTSIM_ASSERT(config_.vtEnabled, "forceSwapOut without VT machinery");
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "forceSwapOut of unknown CTA ", id);
    CtaRec &out = ctas_[id];
    VTSIM_ASSERT(out.state == CtaState::Active, "forceSwapOut of ",
                 toString(out.state), " CTA ", id);
    VTSIM_TRACE(TraceFlag::Swap, now, stats_.name(),
                "preempt swap out cta ", id, " (grid ", out.grid, ")");
    // No swapStallStreak_ sample: this is a preemption, not the stall
    // trigger, and the histogram measures the trigger's patience.
    out.state = CtaState::SwappingOut;
    out.transitionAt = now + config_.vtSwapOutLatency;
    nextTransition_ = std::min(nextTransition_, out.transitionAt);
    out.everSwapped = true;
    out.stalledFor = 0;
    traceStateChange(id, CtaState::SwappingOut, now);
    query_.onCtaIssuableChanged(id, false);
    ++swapOuts_;
    ++gridSwapOuts_[out.grid];
    releaseActiveSlot(fps_[out.grid]);
}

VirtualCtaId
VirtualThreadManager::pickSwapIn(bool require_ready) const
{
    VirtualCtaId best = invalidId;
    bool best_ready = false;
    std::uint64_t best_age = ~0ull;
    for (VirtualCtaId id = 0; id < ctas_.size(); ++id) {
        const CtaRec &rec = ctas_[id];
        if (!rec.resident || rec.state != CtaState::Inactive)
            continue;
        if (activationBlocked_[rec.grid])
            continue; // Preempt policy parks this grid's CTAs.
        const bool ready = query_.ctaPendingOffChip(id) == 0;
        if (config_.vtSwapInPolicy == VtSwapInPolicy::ReadyFirst) {
            // Prefer ready CTAs; oldest first within each class.
            if (best == invalidId || (ready && !best_ready) ||
                (ready == best_ready && rec.age < best_age)) {
                best = id;
                best_ready = ready;
                best_age = rec.age;
            }
        } else {
            // OldestFirst ablation: strict age order.
            if (rec.age < best_age) {
                best = id;
                best_ready = ready;
                best_age = rec.age;
            }
        }
    }
    // Under the paper's policy a swap only pays off when the incoming CTA
    // is ready: never swap in a CTA that would immediately stall. Filling
    // an already-free slot (require_ready == false) takes any CTA.
    if (require_ready &&
        config_.vtSwapInPolicy == VtSwapInPolicy::ReadyFirst &&
        !best_ready) {
        return invalidId;
    }
    return best;
}

Cycle
VirtualThreadManager::nextEventCycle(Cycle now) const
{
    if (!config_.vtEnabled)
        return neverCycle;

    // A free active slot with an inactive CTA waiting (possible after a
    // throttle-cap raise) activates at the very next tick, and so does
    // the next pair of an already-eligible swap (one pair per cycle).
    if (anyFootprintFits()) {
        const VirtualCtaId cand = pickSwapIn(false);
        if (cand != invalidId &&
            activeSlotFreeFor(fps_[ctas_[cand].grid]))
            return now;
    }
    for (VirtualCtaId id = 0; id < ctas_.size(); ++id) {
        const CtaRec &rec = ctas_[id];
        if (rec.resident && rec.state == CtaState::Active &&
            rec.triggeredNow && rec.stalledFor >= config_.vtStallThreshold) {
            if (pickSwapIn(true) != invalidId)
                return now;
            break; // No ready incoming; the same answer for any victim.
        }
    }

    Cycle next = nextTransition_ == neverCycle
                     ? neverCycle
                     : std::max(now, nextTransition_);
    for (const CtaRec &rec : ctas_) {
        if (rec.resident && rec.state == CtaState::Active &&
            rec.stalledFor < config_.vtStallThreshold && rec.stalledNow) {
            // With the stall condition holding steady, the streak first
            // reaches the swap threshold at this cycle's tick. A streak
            // already at/past the threshold generates no event: the
            // trigger was evaluated above and whatever blocked it only
            // changes on an external event.
            next = std::min(
                next,
                now + (config_.vtStallThreshold - 1 - rec.stalledFor));
        }
    }
    return next;
}

void
VirtualThreadManager::fastForwardIdle(std::uint64_t n)
{
    residentSamples_.sampleN(residentCount_, n);
    activeSamples_.sampleN(activeCtas_, n);
    if (!config_.vtEnabled)
        return;
    // Replicate tick()'s streak tracking: stalled Active CTAs count the
    // window's cycles; everyone else's streak is already 0 and stays 0.
    for (CtaRec &rec : ctas_) {
        if (rec.resident && rec.state == CtaState::Active &&
            rec.stalledNow) {
            rec.stalledFor += n;
        }
    }
}

void
VirtualThreadManager::tick(Cycle now)
{
    residentSamples_.sample(residentCount_);
    activeSamples_.sample(activeCtas_);

    if (!config_.vtEnabled)
        return;

    // 1. Complete in-flight transitions (none before nextTransition_).
    if (now >= nextTransition_) {
        nextTransition_ = neverCycle;
        for (VirtualCtaId id = 0; id < ctas_.size(); ++id) {
            CtaRec &rec = ctas_[id];
            if (!rec.resident || (rec.state != CtaState::SwappingOut &&
                                  rec.state != CtaState::SwappingIn))
                continue;
            if (rec.transitionAt > now) {
                nextTransition_ = std::min(nextTransition_, rec.transitionAt);
            } else if (rec.state == CtaState::SwappingOut) {
                rec.state = CtaState::Inactive;
                traceStateChange(id, CtaState::Inactive, now);
            } else {
                rec.state = CtaState::Active;
                rec.stalledFor = 0;
                traceStateChange(id, CtaState::Active, now);
                query_.onCtaIssuableChanged(id, true);
            }
        }
    }

    // 2. Fill any free active slots (e.g. freed by admissions racing).
    while (anyFootprintFits()) {
        const VirtualCtaId incoming = pickSwapIn(false);
        if (incoming == invalidId ||
            !activeSlotFreeFor(fps_[ctas_[incoming].grid]))
            break;
        activate(incoming, now);
    }

    // 3. Track stall streaks of active CTAs. The streak follows the
    //    configured trigger's own condition so the AnyWarpStalled
    //    ablation genuinely fires earlier than the paper's policy.
    // 4. At most one swap pair per cycle (one context-switch port).
    //    One pass evaluates both, reusing the streak's warp-scan for the
    //    trigger (identical decisions to swapTriggered()).
    const bool any_trigger =
        config_.vtSwapTrigger == VtSwapTrigger::AnyWarpStalled;
    VirtualCtaId victim = invalidId;
    std::uint32_t victim_stall = 0;
    for (VirtualCtaId id = 0; id < ctas_.size(); ++id) {
        CtaRec &rec = ctas_[id];
        if (!rec.resident || rec.state != CtaState::Active)
            continue;
        const bool stalled = any_trigger
                                 ? query_.ctaAnyWarpLongStalled(id)
                                 : query_.ctaFullyStalled(id);
        rec.stalledNow = stalled;
        rec.triggeredNow = false;
        if (stalled)
            ++rec.stalledFor;
        else
            rec.stalledFor = 0;
        if (rec.stalledFor < config_.vtStallThreshold)
            continue;
        const bool triggered =
            stalled &&
            (any_trigger || query_.ctaAnyWarpLongStalled(id));
        rec.triggeredNow = triggered;
        if (triggered && rec.stalledFor >= victim_stall) {
            victim = id;
            victim_stall = rec.stalledFor;
        }
    }
    if (victim == invalidId)
        return;
    const VirtualCtaId incoming = pickSwapIn(true);
    if (incoming == invalidId)
        return; // Nobody to run instead: swapping out would only hurt.

    // Cross-grid swap pairs must also fit: with mixed footprints the
    // incoming CTA may need more warp/thread slots than the victim
    // frees. Skip the swap this cycle rather than strand the victim.
    // (Same-footprint pairs — every solo launch — always fit, matching
    // the single-grid machine's invariant.)
    const CtaFootprint &fpOut = fps_[ctas_[victim].grid];
    const CtaFootprint &fpIn = fps_[ctas_[incoming].grid];
    const bool fits =
        activeCtas_ - 1 < std::min(config_.effMaxCtasPerSm(),
                                   dynamicCap_) &&
        warpsActive_ - fpOut.warpsPerCta + fpIn.warpsPerCta <=
            config_.effMaxWarpsPerSm() &&
        threadsActive_ - fpOut.threadsPerCta + fpIn.threadsPerCta <=
            config_.effMaxThreadsPerSm();
    if (!fits)
        return;

    VTSIM_TRACE(TraceFlag::Swap, now, stats_.name(), "swap out cta ",
                victim, " (stalled ", ctas_[victim].stalledFor,
                " cycles), swap in cta ", incoming);
    CtaRec &out = ctas_[victim];
    swapStallStreak_.sample(out.stalledFor);
    out.state = CtaState::SwappingOut;
    out.transitionAt = now + config_.vtSwapOutLatency;
    out.everSwapped = true;
    traceStateChange(victim, CtaState::SwappingOut, now);
    query_.onCtaIssuableChanged(victim, false);
    ++swapOuts_;
    ++gridSwapOuts_[out.grid];
    releaseActiveSlot(fpOut);

    CtaRec &in = ctas_[incoming];
    if (query_.ctaPendingOffChip(incoming) != 0)
        ++swapInNotReady_;
    ++activeCtas_;
    warpsActive_ += fpIn.warpsPerCta;
    threadsActive_ += fpIn.threadsPerCta;
    in.stalledFor = 0;
    in.everSwapped = true;
    in.state = CtaState::SwappingIn;
    // Restore begins after the outgoing state is saved (so the incoming
    // CTA's transition is the later of the pair).
    in.transitionAt = now + config_.vtSwapOutLatency +
                      config_.vtSwapInLatency;
    nextTransition_ = std::min(nextTransition_, out.transitionAt);
    ++swapIns_;
    ++gridSwapIns_[in.grid];
    traceStateChange(incoming, CtaState::SwappingIn, now);
}

void
VirtualThreadManager::reset()
{
    fps_ = {};
    activationBlocked_ = {};
    ctas_.clear();
    nextTransition_ = neverCycle;
    residentCount_ = 0;
    nextAge_ = 0;
    dynamicCap_ = std::numeric_limits<std::uint32_t>::max();
    activeCtas_ = 0;
    warpsActive_ = 0;
    threadsActive_ = 0;
    regsInUse_ = 0;
    sharedInUse_ = 0;
    swapOuts_.reset();
    swapIns_.reset();
    for (GridId g = 0; g < maxGrids; ++g) {
        gridSwapOuts_[g].reset();
        gridSwapIns_[g].reset();
    }
    freshActivations_.reset();
    swapInNotReady_.reset();
    residentSamples_.reset();
    activeSamples_.reset();
    swapStallStreak_.reset();
}

void
VirtualThreadManager::save(Serializer &ser) const
{
    const std::size_t sec = ser.beginSection("vtmg");
    static_assert(std::is_trivially_copyable_v<CtaFootprint>);
    for (const CtaFootprint &fp : fps_)
        ser.put(fp);
    for (std::uint8_t blocked : activationBlocked_)
        ser.put(blocked);
    // CtaRec mixes bools with wider fields, so it goes out field by
    // field to keep the bytes free of padding.
    ser.put<std::uint64_t>(ctas_.size());
    for (const CtaRec &cta : ctas_) {
        ser.put<std::uint8_t>(cta.resident);
        ser.put<std::uint8_t>(static_cast<std::uint8_t>(cta.state));
        ser.put(cta.transitionAt);
        ser.put(cta.age);
        ser.put(cta.stalledFor);
        ser.put<std::uint8_t>(cta.everSwapped);
        ser.put<std::uint8_t>(cta.stalledNow);
        ser.put<std::uint8_t>(cta.triggeredNow);
        ser.put(cta.grid);
    }
    ser.put(residentCount_);
    ser.put(nextAge_);
    ser.put(dynamicCap_);
    ser.put(activeCtas_);
    ser.put(warpsActive_);
    ser.put(threadsActive_);
    ser.put(regsInUse_);
    ser.put(sharedInUse_);
    saveStat(ser, swapOuts_);
    saveStat(ser, swapIns_);
    for (GridId g = 0; g < maxGrids; ++g) {
        saveStat(ser, gridSwapOuts_[g]);
        saveStat(ser, gridSwapIns_[g]);
    }
    saveStat(ser, freshActivations_);
    saveStat(ser, swapInNotReady_);
    saveStat(ser, residentSamples_);
    saveStat(ser, activeSamples_);
    saveStat(ser, swapStallStreak_);
    ser.endSection(sec);
}

void
VirtualThreadManager::restore(Deserializer &des)
{
    des.beginSection("vtmg");
    for (CtaFootprint &fp : fps_)
        des.get(fp);
    for (std::uint8_t &blocked : activationBlocked_)
        des.get(blocked);
    ctas_.resize(des.get<std::uint64_t>());
    for (CtaRec &cta : ctas_) {
        cta.resident = des.get<std::uint8_t>() != 0;
        cta.state = static_cast<CtaState>(des.get<std::uint8_t>());
        des.get(cta.transitionAt);
        des.get(cta.age);
        des.get(cta.stalledFor);
        cta.everSwapped = des.get<std::uint8_t>() != 0;
        cta.stalledNow = des.get<std::uint8_t>() != 0;
        cta.triggeredNow = des.get<std::uint8_t>() != 0;
        des.get(cta.grid);
    }
    nextTransition_ = neverCycle;
    for (const CtaRec &cta : ctas_) {
        if (cta.resident && (cta.state == CtaState::SwappingOut ||
                             cta.state == CtaState::SwappingIn))
            nextTransition_ = std::min(nextTransition_, cta.transitionAt);
    }
    des.get(residentCount_);
    des.get(nextAge_);
    des.get(dynamicCap_);
    des.get(activeCtas_);
    des.get(warpsActive_);
    des.get(threadsActive_);
    des.get(regsInUse_);
    des.get(sharedInUse_);
    restoreStat(des, swapOuts_);
    restoreStat(des, swapIns_);
    for (GridId g = 0; g < maxGrids; ++g) {
        restoreStat(des, gridSwapOuts_[g]);
        restoreStat(des, gridSwapIns_[g]);
    }
    restoreStat(des, freshActivations_);
    restoreStat(des, swapInNotReady_);
    restoreStat(des, residentSamples_);
    restoreStat(des, activeSamples_);
    restoreStat(des, swapStallStreak_);
    des.endSection();
}

} // namespace vtsim
