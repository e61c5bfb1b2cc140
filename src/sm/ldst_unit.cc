#include "sm/ldst_unit.hh"

#include "common/log.hh"
#include "mem/interconnect.hh"
#include "sim/serialize_util.hh"
#include "telemetry/trace_json.hh"

namespace vtsim {

LdstUnit::LdstUnit(SmId sm_id, const GpuConfig &config, Interconnect &noc,
                   LdstClient &client)
    : smId_(sm_id), config_(config), noc_(noc), client_(client),
      l1_(CacheParams{"sm" + std::to_string(sm_id) + ".l1d", config.l1Size,
                      config.l1Assoc, config.l1LineSize, config.l1Mshrs,
                      config.l1MshrTargets}),
      stats_("sm" + std::to_string(sm_id) + ".ldst")
{
    stats_.addCounter("transactions", &transactions_,
                      "coalesced global transactions");
    stats_.addCounter("store_txns", &storeTxns_, "store transactions");
    stats_.addCounter("atom_txns", &atomTxns_, "atomic transactions");
    stats_.addCounter("bypass_txns", &bypassTxns_,
                      "streaming loads routed around the L1");
    stats_.addCounter("inject_stalls", &injectStalls_,
                      "cycles the inject queue head was rejected");
    stats_.addScalar("mlp", &mlp_,
                     "outstanding off-chip loads sampled per cycle");
    stats_.addScalar("queue_wait", &queueWait_,
                     "cycles a transaction waited to enter the L1/NoC");
    stats_.addScalar("round_trip", &roundTrip_,
                     "cycles from injection to completion");
}

std::uint32_t
LdstUnit::allocPending(VirtualCtaId vcta, std::uint32_t warp, RegIndex dst,
                       std::uint32_t remaining)
{
    std::uint32_t idx;
    if (!pendingFree_.empty()) {
        idx = pendingFree_.back();
        pendingFree_.pop_back();
    } else {
        idx = pendingSlab_.size();
        pendingSlab_.emplace_back();
    }
    PendingWarpMem &p = pendingSlab_[idx];
    p.vcta = vcta;
    p.warpInCta = warp;
    p.dst = dst;
    p.remaining = remaining;
    p.inUse = true;
    return idx;
}

std::uint64_t
LdstUnit::allocTransaction(const Transaction &t)
{
    std::uint64_t token;
    if (!txnFree_.empty()) {
        token = txnFree_.back();
        txnFree_.pop_back();
    } else {
        token = txnSlab_.size();
        txnSlab_.emplace_back();
    }
    txnSlab_[token] = t;
    txnSlab_[token].inUse = true;
    ++inFlight_;
    return token;
}

void
LdstUnit::issueGlobal(VirtualCtaId vcta, std::uint32_t warp_in_cta,
                      const Instruction &inst,
                      const std::vector<LaneAccess> &accesses,
                      GridId grid)
{
    VTSIM_ASSERT(inst.isGlobalMem(), "issueGlobal with non-global op");
    VTSIM_ASSERT(!accesses.empty(), "issueGlobal with no accesses");

    const auto coalesced = coalesce(accesses, config_.l1LineSize);
    transactions_ += coalesced.size();

    MemAccessKind kind = MemAccessKind::Load;
    if (inst.op == Opcode::STG)
        kind = MemAccessKind::Store;
    else if (inst.op == Opcode::ATOMG_ADD)
        kind = MemAccessKind::Atomic;

    const bool bypass = kind == MemAccessKind::Load &&
                        (config_.l1BypassGlobalLoads ||
                         inst.cacheOp == CacheOp::Streaming);

    std::uint32_t pending_idx = 0;
    if (kind != MemAccessKind::Store) {
        pending_idx = allocPending(vcta, warp_in_cta, inst.dst,
                                   coalesced.size());
    }

    std::uint8_t flags = 0;
    if (kind == MemAccessKind::Store)
        flags |= MtraceAccess::flagStore;
    if (kind == MemAccessKind::Atomic)
        flags |= MtraceAccess::flagAtomic;
    if (bypass)
        flags |= MtraceAccess::flagBypassL1;

    for (const auto &ca : coalesced) {
        Transaction t;
        t.pendingIdx = pending_idx;
        t.lineAddr = ca.lineAddr;
        t.bytes = ca.bytes;
        t.kind = kind;
        t.bypassL1 = bypass;
        t.createdAt = now_;
        t.grid = grid;
        injectQueue_.push_back(allocTransaction(t));
        if (kind == MemAccessKind::Store)
            ++storeTxns_;
        else if (kind == MemAccessKind::Atomic)
            ++atomTxns_;
        if (mtrace_) {
            mtrace_->access(now_, smId_, flags, ca.lineAddr, ca.bytes,
                            ca.lanes, vcta << 8 | warp_in_cta);
        }
    }
}

void
LdstUnit::replayInject(const MtraceAccess &access)
{
    ++transactions_;
    MemAccessKind kind = MemAccessKind::Load;
    if (access.isStore())
        kind = MemAccessKind::Store;
    else if (access.isAtomic())
        kind = MemAccessKind::Atomic;

    // Loads and atomics need a live pending entry: markOffChip and
    // completeTransaction dereference it for the client callbacks (the
    // replaying SM ignores those — it has no resident CTAs).
    std::uint32_t pending_idx = 0;
    if (kind != MemAccessKind::Store)
        pending_idx = allocPending(invalidId, access.warpTag & 0xff,
                                   noReg, 1);

    Transaction t;
    t.pendingIdx = pending_idx;
    t.lineAddr = access.lineAddr;
    t.bytes = access.bytes;
    t.kind = kind;
    t.bypassL1 = access.bypassL1();
    t.createdAt = now_;
    injectQueue_.push_back(allocTransaction(t));
    if (kind == MemAccessKind::Store)
        ++storeTxns_;
    else if (kind == MemAccessKind::Atomic)
        ++atomTxns_;
}

void
LdstUnit::markOffChip(std::uint64_t token)
{
    Transaction &t = txnSlab_[token];
    VTSIM_ASSERT(!t.offChip, "transaction already off-chip");
    t.offChip = true;
    ++offChipOutstanding_;
    const PendingWarpMem &p = pendingSlab_[t.pendingIdx];
    client_.offChipIssued(p.vcta, p.warpInCta);
}

bool
LdstUnit::injectOne(Cycle now)
{
    if (injectQueue_.empty())
        return false;
    const std::uint64_t token = injectQueue_.front();
    Transaction &t = txnSlab_[token];
    t.injectedAt = now;
    queueWait_.sample(static_cast<double>(now - t.createdAt));

    if (t.kind == MemAccessKind::Store) {
        // Write-through, no allocate, no response.
        l1_.storeAccess(t.lineAddr);
        MemRequest req;
        req.lineAddr = t.lineAddr;
        req.bytes = t.bytes;
        req.kind = MemAccessKind::Store;
        req.srcSm = smId_;
        req.grid = t.grid;
        noc_.sendRequest(req, now);
        injectQueue_.pop_front();
        // Stores carry no pending entry; retire the transaction now.
        t.inUse = false;
        txnFree_.push_back(token);
        --inFlight_;
        return true;
    }

    if (t.kind == MemAccessKind::Atomic) {
        // Atomics are performed at the L2: bypass the L1 entirely.
        MemRequest req;
        req.lineAddr = t.lineAddr;
        req.bytes = t.bytes;
        req.kind = MemAccessKind::Atomic;
        req.srcSm = smId_;
        req.grid = t.grid;
        req.sink = this;
        req.token = token;
        markOffChip(token);
        noc_.sendRequest(req, now);
        injectQueue_.pop_front();
        return true;
    }

    if (t.kind == MemAccessKind::Load && t.bypassL1) {
        // Streaming load: straight to the L2, no L1 allocation.
        MemRequest req;
        req.lineAddr = t.lineAddr;
        req.bytes = t.bytes;
        req.kind = MemAccessKind::Load;
        req.srcSm = smId_;
        req.grid = t.grid;
        req.sink = this;
        req.token = token;
        markOffChip(token);
        ++bypassTxns_;
        noc_.sendRequest(req, now);
        injectQueue_.pop_front();
        return true;
    }

    // Load: try the L1.
    MemRequest probe;
    probe.lineAddr = t.lineAddr;
    probe.bytes = t.bytes;
    probe.kind = MemAccessKind::Load;
    probe.srcSm = smId_;
    probe.grid = t.grid;
    probe.sink = this;
    probe.token = token;

    switch (l1_.access(probe)) {
      case CacheOutcome::Hit:
        if (traceJson_)
            traceL1("l1-hit", t, now);
        hitPending_.push({now + config_.l1HitLatency, token});
        injectQueue_.pop_front();
        return true;
      case CacheOutcome::MissNew: {
        if (traceJson_)
            traceL1("l1-miss", t, now);
        t.throughL1 = true;
        markOffChip(token);
        MemRequest req = probe;
        req.bytes = config_.l1LineSize; // Fetch the whole line.
        noc_.sendRequest(req, now);
        injectQueue_.pop_front();
        return true;
      }
      case CacheOutcome::MissMerged:
        // Parked in the MSHR; completes when the fill arrives.
        markOffChip(token);
        injectQueue_.pop_front();
        return true;
      case CacheOutcome::RejectMshrFull:
      case CacheOutcome::RejectTargets:
        ++injectStalls_;
        return false; // Head stays; retry next cycle.
    }
    return false;
}

void
LdstUnit::traceL1(const char *outcome, const Transaction &t, Cycle now)
{
    if (traceJson_->enabled(telemetry::TraceCategory::Mem)) {
        traceJson_->instant(smId_, pendingSlab_[t.pendingIdx].vcta, now,
                            detail::concat(outcome, " 0x", std::hex,
                                           t.lineAddr),
                            "mem");
    }
}

void
LdstUnit::tick(Cycle now)
{
    now_ = now;
    // Close the sample gap through this cycle: consecutive ticks close
    // exactly one cycle; after a fast-forward window the same call
    // replays the skipped per-cycle samples (constant count) in bulk.
    mlp_.sampleN(offChipOutstanding_, now + 1 - statsTo_);
    statsTo_ = now + 1;
    while (!hitPending_.empty() && hitPending_.top().readyAt <= now) {
        const std::uint64_t token = hitPending_.top().token;
        hitPending_.pop();
        completeTransaction(token);
    }
    for (std::uint32_t i = 0; i < config_.ldstThroughputPerSm; ++i) {
        if (!injectOne(now))
            break;
    }
}

void
LdstUnit::memResponse(std::uint64_t token, Cycle now)
{
    // Settle the client's fast-forward window, then our own per-cycle
    // MLP samples up to (but excluding) this cycle, before any counter
    // moves: the window's samples must see the pre-completion
    // outstanding count, and round_trip the real delivery cycle,
    // exactly as in the cycle-by-cycle loop. Cycle @p now itself is
    // sampled by the upcoming tick, which observes the new count.
    client_.responseArriving(now);
    if (now > statsTo_) {
        mlp_.sampleN(offChipOutstanding_, now - statsTo_);
        statsTo_ = now;
    }
    now_ = now;
    VTSIM_ASSERT(token < txnSlab_.size() && txnSlab_[token].inUse,
                 "response for unknown transaction ", token);
    Transaction &t = txnSlab_[token];
    if (t.throughL1) {
        // This response is a line fill: complete every merged waiter.
        // The L1 is write-through, so evicted victims are never dirty.
        const Addr line = t.lineAddr;
        for (const MemRequest &target : l1_.fill(line).targets)
            completeTransaction(target.token);
    } else {
        completeTransaction(token);
    }
}

void
LdstUnit::completeTransaction(std::uint64_t token)
{
    Transaction &t = txnSlab_[token];
    VTSIM_ASSERT(t.inUse, "double completion of transaction ", token);
    PendingWarpMem &p = pendingSlab_[t.pendingIdx];
    VTSIM_ASSERT(p.inUse, "completion for retired warp-mem entry");

    if (t.offChip) {
        VTSIM_ASSERT(offChipOutstanding_ > 0, "off-chip underflow");
        --offChipOutstanding_;
        roundTrip_.sample(static_cast<double>(now_ - t.injectedAt));
        client_.offChipReturned(p.vcta, p.warpInCta);
    }

    t.inUse = false;
    txnFree_.push_back(token);
    --inFlight_;

    VTSIM_ASSERT(p.remaining > 0, "warp-mem remaining underflow");
    if (--p.remaining == 0) {
        client_.loadComplete(p.vcta, p.warpInCta, p.dst);
        p.inUse = false;
        pendingFree_.push_back(t.pendingIdx);
    }
}

Cycle
LdstUnit::nextEventCycle(Cycle now)
{
    if (!injectQueue_.empty())
        return now;
    if (!hitPending_.empty())
        return std::max(now, hitPending_.top().readyAt);
    return neverCycle;
}

void
LdstUnit::settleTo(Cycle cycle)
{
    if (cycle > statsTo_) {
        mlp_.sampleN(offChipOutstanding_, cycle - statsTo_);
        statsTo_ = cycle;
    }
}

void
LdstUnit::reset()
{
    l1_.reset();
    pendingSlab_.clear();
    pendingFree_.clear();
    txnSlab_.clear();
    txnFree_.clear();
    injectQueue_.clear();
    hitPending_ = {};
    now_ = 0;
    statsTo_ = 0;
    inFlight_ = 0;
    offChipOutstanding_ = 0;
    transactions_.reset();
    storeTxns_.reset();
    atomTxns_.reset();
    bypassTxns_.reset();
    injectStalls_.reset();
    mlp_.reset();
    queueWait_.reset();
    roundTrip_.reset();
}

void
LdstUnit::save(Serializer &ser) const
{
    const std::size_t sec = ser.beginSection("ldst");
    static_assert(std::is_trivially_copyable_v<HitCompletion>);
    // PendingWarpMem and Transaction carry interior padding, so both
    // slabs go out field by field to keep the bytes deterministic.
    ser.put<std::uint64_t>(pendingSlab_.size());
    for (const PendingWarpMem &p : pendingSlab_) {
        ser.put(p.vcta);
        ser.put(p.warpInCta);
        ser.put(p.dst);
        ser.put(p.remaining);
        ser.put<std::uint8_t>(p.inUse);
    }
    ser.putVec(pendingFree_);
    ser.put<std::uint64_t>(txnSlab_.size());
    for (const Transaction &t : txnSlab_) {
        ser.put(t.pendingIdx);
        ser.put(t.lineAddr);
        ser.put(t.bytes);
        ser.put<std::uint8_t>(static_cast<std::uint8_t>(t.kind));
        ser.put<std::uint8_t>(t.bypassL1);
        ser.put<std::uint8_t>(t.throughL1);
        ser.put<std::uint8_t>(t.offChip);
        ser.put<std::uint8_t>(t.inUse);
        ser.put(t.createdAt);
        ser.put(t.injectedAt);
        ser.put(t.grid);
    }
    ser.putVec(txnFree_);
    ser.put<std::uint64_t>(injectQueue_.size());
    for (const std::uint64_t token : injectQueue_)
        ser.put(token);
    auto hits = hitPending_;
    ser.put<std::uint64_t>(hits.size());
    while (!hits.empty()) {
        ser.put(hits.top());
        hits.pop();
    }
    // now_ is deliberately not checkpointed (see the member comment):
    // it records which tick last ran in full, and that cadence differs
    // between an uninterrupted run and a restored/sharded one.
    ser.put(statsTo_);
    ser.put(inFlight_);
    ser.put(offChipOutstanding_);
    saveStat(ser, transactions_);
    saveStat(ser, storeTxns_);
    saveStat(ser, atomTxns_);
    saveStat(ser, bypassTxns_);
    saveStat(ser, injectStalls_);
    saveStat(ser, mlp_);
    saveStat(ser, queueWait_);
    saveStat(ser, roundTrip_);
    ser.endSection(sec);
    l1_.save(ser);
}

void
LdstUnit::restore(Deserializer &des)
{
    des.beginSection("ldst");
    pendingSlab_.resize(des.get<std::uint64_t>());
    for (PendingWarpMem &p : pendingSlab_) {
        des.get(p.vcta);
        des.get(p.warpInCta);
        des.get(p.dst);
        des.get(p.remaining);
        p.inUse = des.get<std::uint8_t>() != 0;
    }
    des.getVec(pendingFree_);
    txnSlab_.resize(des.get<std::uint64_t>());
    for (Transaction &t : txnSlab_) {
        des.get(t.pendingIdx);
        des.get(t.lineAddr);
        des.get(t.bytes);
        t.kind = static_cast<MemAccessKind>(des.get<std::uint8_t>());
        t.bypassL1 = des.get<std::uint8_t>() != 0;
        t.throughL1 = des.get<std::uint8_t>() != 0;
        t.offChip = des.get<std::uint8_t>() != 0;
        t.inUse = des.get<std::uint8_t>() != 0;
        des.get(t.createdAt);
        des.get(t.injectedAt);
        des.get(t.grid);
    }
    des.getVec(txnFree_);
    injectQueue_.clear();
    const auto inject_count = des.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < inject_count; ++i)
        injectQueue_.push_back(des.get<std::uint64_t>());
    hitPending_ = {};
    const auto hit_count = des.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < hit_count; ++i)
        hitPending_.push(des.get<HitCompletion>());
    now_ = 0;
    des.get(statsTo_);
    des.get(inFlight_);
    des.get(offChipOutstanding_);
    restoreStat(des, transactions_);
    restoreStat(des, storeTxns_);
    restoreStat(des, atomTxns_);
    restoreStat(des, bypassTxns_);
    restoreStat(des, injectStalls_);
    restoreStat(des, mlp_);
    restoreStat(des, queueWait_);
    restoreStat(des, roundTrip_);
    des.endSection();
    l1_.restore(des);
}

bool
LdstUnit::idle() const
{
    return injectQueue_.empty() && inFlight_ == 0 && hitPending_.empty();
}

} // namespace vtsim
