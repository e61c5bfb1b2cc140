/**
 * @file
 * SM <-> memory-partition interconnect: a crossbar with per-endpoint
 * output queues. Requests queue at their destination partition's port and
 * responses at their source SM's port; each port delivers a bounded
 * number of flits per cycle after a fixed traversal latency. Contention
 * is therefore per-port, as in the Fermi crossbar, not chip-global.
 */

#ifndef VTSIM_MEM_INTERCONNECT_HH
#define VTSIM_MEM_INTERCONNECT_HH

#include <deque>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "mem/mem_request.hh"
#include "sim/sim_component.hh"
#include "stats/stats.hh"

namespace vtsim {

/** Interconnect parameters. */
struct NocParams
{
    std::uint32_t latency = 12;      ///< Traversal cycles, each way.
    std::uint32_t flitsPerCycle = 2; ///< Deliveries per port per cycle.
    std::uint32_t numSms = 1;
    std::uint32_t numPartitions = 1;
    /** Skip provably eventless tick()s (event-horizon fast-forward). */
    bool lazyTick = true;
};

class Interconnect : public SimComponent
{
  public:
    using Deliver = std::function<void(const MemRequest &, Cycle)>;
    using Router = std::function<std::uint32_t(Addr)>;

    explicit Interconnect(const NocParams &params);

    /** Wire the endpoints (Gpu does this once). */
    void setRequestSink(Deliver d) { toMem_ = std::move(d); }
    void setResponseSink(Deliver d) { toSm_ = std::move(d); }
    /** Address -> partition index mapping for request routing. */
    void setRouter(Router r) { router_ = std::move(r); }

    /** Enqueue an SM -> memory request at cycle @p now. */
    void sendRequest(const MemRequest &req, Cycle now);

    /** Enqueue a memory -> SM response at cycle @p now. */
    void sendResponse(const MemRequest &req, Cycle now);

    /** Deliver everything whose traversal completed by @p now, respecting
     *  per-port bandwidth. */
    void tick(Cycle now) override;

    bool idle() const;

    // --- Sharded-epoch staging (docs/ARCHITECTURE.md "Sharded
    // simulation"). Between beginEpochStaging() and mergeStaged(),
    // sendRequest()/sendResponse() append to per-source staging buffers
    // instead of the destination queues, so shard workers touching only
    // their own sources never contend on the shared queues. The epoch
    // length never exceeds the traversal latency, so nothing staged in
    // an epoch can mature inside it; mergeStaged() then folds the
    // buffers into the real queues in the canonical sequential arrival
    // order (send cycle, source index, per-source sequence) — the byte
    // stream save() emits is identical to the one the unsharded run
    // produces. -------------------------------------------------------------

    /** Enter staging mode (sharded epoch about to run). */
    void beginEpochStaging();

    /** Leave staging mode and fold every staged message into the real
     *  destination queues in canonical order. */
    void mergeStaged();

    /** Nothing staged right now (idle() does not see staged traffic). */
    bool stagingEmpty() const;

    /** Worker-local flit/stall counts from per-port drains; folded into
     *  the shared counters at the epoch barrier. */
    struct PortDelta
    {
        std::uint64_t reqFlits = 0;
        std::uint64_t respFlits = 0;
        std::uint64_t stallCycles = 0;
        /** Last cycle this port delivered a flit (epoch-end bound: the
         *  sequential machine is not all-idle before every queued
         *  message has been delivered, even one a write-back store
         *  absorbs without leaving its destination non-idle). */
        Cycle lastFlit = 0;
        bool sawFlit = false;
    };

    /**
     * Drain one destination port for cycle @p now — the per-port slice
     * of tick(), counting into @p delta instead of the shared stats.
     * During an epoch each port is owned by exactly one shard worker:
     * the request port of partition @p partition by the partition's
     * worker, the response port of SM @p sm by the SM's worker.
     */
    void drainRequestPort(std::uint32_t partition, Cycle now,
                          PortDelta &delta);
    void drainResponsePort(std::uint32_t sm, Cycle now, PortDelta &delta);

    /** Fold a worker's drain counts into the shared stats (barrier). */
    void applyPortDelta(const PortDelta &delta);

    bool responsePortEmpty(std::uint32_t sm) const
    { return respQueues_[sm].empty(); }

    /**
     * Earliest cycle >= @p now at which tick() might deliver a flit
     * (event-horizon fast-forward protocol; see docs/ARCHITECTURE.md).
     * neverCycle when every queue is empty.
     */
    Cycle nextEventCycle(Cycle now) override { return computeNextEvent(now); }

    // SimComponent lifecycle. No settleTo: queue heads carry absolute
    // ready cycles and no per-cycle accounting is deferred.
    void reset() override;
    void save(Serializer &ser) const override;
    void restore(Deserializer &des) override;

    StatGroup &stats() { return stats_; }
    std::uint64_t requestFlits() const { return reqFlits_.value(); }
    std::uint64_t responseFlits() const { return respFlits_.value(); }

  private:
    struct InFlight
    {
        MemRequest req;
        Cycle readyAt;
    };

    void drain(std::deque<InFlight> &queue, const Deliver &deliver,
               Cycle now);
    Cycle computeNextEvent(Cycle now) const;
    static void saveQueues(Serializer &ser,
                           const std::vector<std::deque<InFlight>> &queues);
    static void restoreQueues(Deserializer &des,
                              std::vector<std::deque<InFlight>> &queues);

    /** One staged message: arrival order is (sentAt, source, position
     *  in the source's buffer). */
    struct Staged
    {
        MemRequest req;
        Cycle sentAt;
    };

    void mergeInto(std::vector<std::vector<Staged>> &staged, bool to_mem);

    NocParams params_;
    /** Lazy-tick horizon: while now < ffHorizon_ and nothing is sent,
     *  tick() cannot deliver a flit (all queue heads mature later) and
     *  returns immediately. No deferred accounting is needed: the
     *  bandwidth-stall counter only advances when a head is ready, and
     *  a ready head pins the horizon to the present. Rebuilt on demand,
     *  never checkpointed: its value is a function of how the run
     *  reached this state (tick cadence), not of the state itself. */
    Cycle ffHorizon_ = 0;
    bool staging_ = false;
    /** Staged requests by source SM / staged responses by source
     *  partition (a response's source is the partition its line address
     *  routes to — the one that produced it). */
    std::vector<std::vector<Staged>> stagedReq_;
    std::vector<std::vector<Staged>> stagedResp_;
    /** One request queue per destination partition. */
    std::vector<std::deque<InFlight>> reqQueues_;
    /** One response queue per destination SM. */
    std::vector<std::deque<InFlight>> respQueues_;
    Deliver toMem_;
    Deliver toSm_;
    Router router_;

    StatGroup stats_;
    Counter reqFlits_;
    Counter respFlits_;
    Counter stallCycles_; ///< Port-cycles a ready flit waited on bw.
};

} // namespace vtsim

#endif // VTSIM_MEM_INTERCONNECT_HH
