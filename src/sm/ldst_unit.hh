/**
 * @file
 * The SM's load/store unit: coalesced global transactions through the L1
 * (with MSHR merging), write-through stores, L1-bypassing atomics, and
 * the completion plumbing that clears warp scoreboards. Off-chip
 * transaction tracking here produces the "long-latency stall" signal the
 * Virtual Thread swap trigger consumes.
 */

#ifndef VTSIM_SM_LDST_UNIT_HH
#define VTSIM_SM_LDST_UNIT_HH

#include <deque>
#include <queue>
#include <vector>

#include "config/gpu_config.hh"
#include "func/exec_context.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "mem/mem_request.hh"
#include "mem/mtrace.hh"
#include "sim/sim_component.hh"

namespace vtsim {

class Interconnect;

/**
 * Callbacks from the LDST unit into the SM core.
 *
 * These are ready-set publication points: each one can flip a warp's
 * issuability (loadComplete releases a scoreboard hazard; the off-chip
 * pair moves the warp's pendingOffChip across 0), so the SM re-evaluates
 * the warp's ready bit and stall counters inside them rather
 * than rescanning on the next cycle.
 */
class LdstClient
{
  public:
    virtual ~LdstClient() = default;

    /** Every transaction of a warp load completed: clear its dst. */
    virtual void loadComplete(VirtualCtaId vcta, std::uint32_t warp_in_cta,
                              RegIndex dst) = 0;

    /** A transaction of this warp left the SM (post-L1). */
    virtual void offChipIssued(VirtualCtaId vcta,
                               std::uint32_t warp_in_cta) = 0;

    /** A previously off-chip transaction of this warp returned. */
    virtual void offChipReturned(VirtualCtaId vcta,
                                 std::uint32_t warp_in_cta) = 0;

    /**
     * A NoC response is about to be processed at cycle @p now. Called
     * before any completion bookkeeping so a lazily fast-forwarding SM
     * can settle its skipped cycles first — round-trip and MLP samples
     * must observe the same state as the cycle-by-cycle loop.
     */
    virtual void responseArriving(Cycle now) = 0;
};

class LdstUnit : public MemResponseSink, public SimComponent
{
  public:
    LdstUnit(SmId sm_id, const GpuConfig &config, Interconnect &noc,
             LdstClient &client);

    /** Room for one more warp memory instruction's transactions?
     *  Inline: checked on every memory-warp issue-sweep visit. Leaves
     *  room for a fully diverged instruction (32 transactions). */
    bool canAccept() const
    { return injectQueue_.size() + warpSize <= maxInjectQueue; }

    /**
     * Accept one warp global-memory instruction (already functionally
     * executed). Coalesces into line transactions and queues them.
     * The SM must have reserved @p inst.dst beforehand for loads.
     */
    void issueGlobal(VirtualCtaId vcta, std::uint32_t warp_in_cta,
                     const Instruction &inst,
                     const std::vector<LaneAccess> &accesses,
                     GridId grid = 0);

    /**
     * Inject one recorded transaction (trace replay). Reproduces
     * issueGlobal's per-transaction bookkeeping — loads and atomics get
     * a one-shot pending entry with no destination register — so the
     * L1/NoC see the identical request stream the recording run
     * produced. The SM replay driver calls this right after tick(@p c)
     * for every record stamped cycle @p c, matching the functional
     * issue-at-c / inject-from-c+1 cadence.
     */
    void replayInject(const MtraceAccess &access);

    /** Route every coalesced transaction to @p writer (record mode);
     *  null disables. */
    void setMtraceWriter(MtraceWriter *writer) { mtrace_ = writer; }

    /** Drive injections and L1-hit completions for cycle @p now. */
    void tick(Cycle now) override;

    /** Interconnect response delivery. Settles the unit's own per-cycle
     *  MLP samples up to (but excluding) @p now before any counter
     *  moves, so the skipped window observes the pre-completion
     *  outstanding count — this is the only settle entry point for
     *  externally driven state. */
    void memResponse(std::uint64_t token, Cycle now) override;

    /** No transactions queued or in flight. */
    bool idle() const;

    /**
     * Earliest cycle >= @p now at which tick() might act: queued
     * transactions inject every tick; otherwise the next matured L1
     * hit. Transactions out at the NoC/L2/DRAM are those components'
     * events. neverCycle when nothing local is pending.
     */
    Cycle nextEventCycle(Cycle now) override;

    /**
     * Bring the per-cycle MLP series up to date through cycle
     * @p cycle - 1 (cycle @p cycle itself is sampled by the next tick or
     * memResponse). The outstanding count is constant over the settled
     * window by the horizon contract, so one sampleN reproduces the
     * skipped per-cycle samples bit for bit.
     */
    void settleTo(Cycle cycle) override;

    // SimComponent lifecycle.
    void reset() override;
    void save(Serializer &ser) const override;
    void restore(Deserializer &des) override;

    Cache &l1() { return l1_; }
    const Cache &l1() const { return l1_; }

    /** Coalesced transactions generated (stat). */
    std::uint64_t transactions() const { return transactions_.value(); }

    /** Mean outstanding off-chip loads per cycle (memory parallelism). */
    double meanMlp() const { return mlp_.mean(); }
    double meanQueueWait() const { return queueWait_.mean(); }
    double meanRoundTrip() const { return roundTrip_.mean(); }
    StatGroup &stats() { return stats_; }

    /** Invalidate L1 (kernel boundary). */
    void flushCaches() { l1_.flush(); }

  private:
    /** One warp memory instruction awaiting its transactions. */
    struct PendingWarpMem
    {
        VirtualCtaId vcta = invalidId;
        std::uint32_t warpInCta = 0;
        RegIndex dst = noReg;
        std::uint32_t remaining = 0;
        bool inUse = false;
    };

    /** One line transaction in flight. */
    struct Transaction
    {
        std::uint32_t pendingIdx = 0;
        Addr lineAddr = 0;
        std::uint32_t bytes = 0;
        MemAccessKind kind = MemAccessKind::Load;
        bool bypassL1 = false;  ///< Streaming (.cg) load: skip the L1.
        bool throughL1 = false; ///< Response must fill our L1.
        bool offChip = false;   ///< Counted in the warp's off-chip total.
        bool inUse = false;
        Cycle createdAt = 0;    ///< When the warp instruction issued.
        Cycle injectedAt = 0;   ///< When it entered the L1/NoC.
        GridId grid = 0;        ///< Issuing grid (per-grid attribution).
    };

    std::uint32_t allocPending(VirtualCtaId vcta, std::uint32_t warp,
                               RegIndex dst, std::uint32_t remaining);
    std::uint64_t allocTransaction(const Transaction &t);
    void completeTransaction(std::uint64_t token);
    void markOffChip(std::uint64_t token);
    bool injectOne(Cycle now);

    SmId smId_;
    const GpuConfig &config_;
    Interconnect &noc_;
    LdstClient &client_;
    Cache l1_;
    /** Trace sink for record mode (not machine state, never saved). */
    MtraceWriter *mtrace_ = nullptr;

    std::vector<PendingWarpMem> pendingSlab_;
    std::vector<std::uint32_t> pendingFree_;
    std::vector<Transaction> txnSlab_;
    std::vector<std::uint64_t> txnFree_;

    /** Transactions waiting to enter the L1 / NoC, in order. */
    std::deque<std::uint64_t> injectQueue_;
    static constexpr std::size_t maxInjectQueue = 64;

    /** L1-hit completions scheduled for the future. */
    struct HitCompletion
    {
        Cycle readyAt;
        std::uint64_t token;
        /** Total order: heap pop order must be a function of the
         *  machine state alone, not of push history, or a
         *  checkpoint-restored run could retire same-cycle ties in a
         *  different order than the uninterrupted one. */
        bool operator>(const HitCompletion &o) const
        {
            if (readyAt != o.readyAt)
                return readyAt > o.readyAt;
            return token > o.token;
        }
    };
    std::priority_queue<HitCompletion, std::vector<HitCompletion>,
                        std::greater<>> hitPending_;

    /** Cycle of the last full tick()/memResponse(), refreshed before
     *  every observable use (transaction createdAt, round-trip
     *  samples). Not checkpointed: its value depends on which ticks
     *  the fast-forward guard skipped — tick cadence, not machine
     *  state — and cadence varies across sequential, sharded and
     *  resumed runs whose checkpoints must stay byte-identical. */
    Cycle now_ = 0;
    /** Next cycle without an MLP sample: tick(), memResponse() and
     *  settleTo() advance it, each sampling the gap it closes. */
    Cycle statsTo_ = 0;
    std::uint32_t inFlight_ = 0; ///< Live transactions (all kinds).
    std::uint32_t offChipOutstanding_ = 0; ///< Post-L1 loads in flight.

    StatGroup stats_;
    Counter transactions_;
    Counter storeTxns_;
    Counter atomTxns_;
    Counter bypassTxns_;
    Counter injectStalls_;
    ScalarStat mlp_; ///< Outstanding off-chip loads, sampled per cycle.
    ScalarStat queueWait_;   ///< Cycles from creation to injection.
    ScalarStat roundTrip_;   ///< Cycles from injection to completion.
};

} // namespace vtsim

#endif // VTSIM_SM_LDST_UNIT_HH
