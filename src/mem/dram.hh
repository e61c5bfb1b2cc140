/**
 * @file
 * Per-partition DRAM channel model: banked, open-row, FR-FCFS scheduled.
 *
 * Requests queue at the channel; each cycle the scheduler issues up to
 * two commands, preferring row-buffer hits within a bounded reorder
 * window (First-Ready FCFS) — the policy GPUs rely on to keep row
 * locality when many CTAs' streams interleave, and therefore essential
 * for evaluating Virtual Thread's extra thread-level parallelism fairly.
 */

#ifndef VTSIM_MEM_DRAM_HH
#define VTSIM_MEM_DRAM_HH

#include <array>
#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "common/types.hh"
#include "sim/sim_component.hh"
#include "stats/stats.hh"

namespace vtsim::telemetry {
class TraceJsonWriter;
}

namespace vtsim {

/** DRAM channel parameters. */
struct DramParams
{
    std::string name = "dram";
    std::uint32_t numBanks = 8;
    std::uint32_t rowBufferBytes = 2048;
    std::uint32_t rowHitLatency = 200;   ///< Request-to-data latency.
    std::uint32_t rowMissLatency = 350;
    /** Cycles the bank itself is occupied (commands pipeline; the rest
     *  of the latency overlaps with other banks' work). */
    std::uint32_t rowHitOccupancy = 4;
    std::uint32_t rowMissOccupancy = 40;
    std::uint32_t bytesPerCycle = 32;
    std::uint32_t lineSize = 128;
    std::uint32_t schedWindow = 32;   ///< FR-FCFS reorder window.
    std::uint32_t commandsPerCycle = 2;
    /** Line-interleave factor of the chip (number of partitions): lines
     *  are renumbered partition-locally before bank/row decomposition so
     *  partition and bank selection use disjoint address bits. */
    std::uint32_t addressStride = 1;
};

class Dram : public SimComponent
{
  public:
    explicit Dram(const DramParams &params);

    /**
     * Queue one line transaction arriving at @p now.
     * @param needs_completion True for reads: the line address will be
     *        reported by tick() when the data transfer finishes.
     */
    void enqueue(Addr line_addr, std::uint32_t bytes,
                 bool needs_completion, Cycle now, GridId grid = 0);

    /**
     * Advance one cycle: issue commands (FR-FCFS) and collect finished
     * reads. Named advance() rather than SimComponent::tick() because it
     * returns the completed lines to its owning MemoryPartition — the
     * partition is the registered timed component; the channel rides
     * inside it.
     * @return Line addresses of reads whose data completed this cycle.
     */
    std::vector<Addr> advance(Cycle now);

    /** No requests queued or in flight. */
    bool idle() const;

    /**
     * Earliest cycle >= @p now at which advance() might complete a read
     * or issue a command: the earliest in-flight completion, or the
     * earliest cycle a bank with a schedulable request frees up.
     * neverCycle when the channel is idle.
     */
    Cycle nextEventCycle(Cycle now) override;

    // SimComponent lifecycle.
    void reset() override;
    void save(Serializer &ser) const override;
    void restore(Deserializer &des) override;

    StatGroup &stats() { return stats_; }
    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::uint64_t bytesTransferred() const { return bytes_.value(); }

    /** Route command-issue events to a per-Gpu Perfetto writer as
     *  instants on (pid = @p pid, tid = bank); null disables. */
    void setTraceJson(telemetry::TraceJsonWriter *writer, std::uint32_t pid)
    {
        traceJson_ = writer;
        tracePid_ = pid;
    }

  private:
    struct Request
    {
        Addr lineAddr;
        std::uint32_t bytes;
        bool needsCompletion;
        std::uint32_t bank;
        std::uint64_t row;
        GridId grid = 0;
    };

    struct Completion
    {
        Cycle readyAt;
        Addr lineAddr;
        bool needsCompletion;
        /** Total order (see LdstUnit::HitCompletion): pop order must
         *  depend on state only, so checkpoint restore cannot reorder
         *  same-cycle ties. */
        bool operator>(const Completion &o) const
        {
            if (readyAt != o.readyAt)
                return readyAt > o.readyAt;
            if (lineAddr != o.lineAddr)
                return lineAddr > o.lineAddr;
            return needsCompletion > o.needsCompletion;
        }
    };

    struct Bank
    {
        std::uint64_t openRow = ~0ull;
        Cycle readyAt = 0;
    };

    bool issueOne(Cycle now);

    DramParams params_;
    std::vector<Bank> banks_;
    std::deque<Request> queue_;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>> inFlight_;
    Cycle busReadyAt_ = 0;

    StatGroup stats_;
    Counter rowHits_;
    Counter rowMisses_;
    Counter bytes_;
    std::array<Counter, maxGrids> gridRowHits_;
    std::array<Counter, maxGrids> gridRowMisses_;
    std::array<Counter, maxGrids> gridBytes_;
    ScalarStat queueDepth_;
    telemetry::TraceJsonWriter *traceJson_ = nullptr;
    std::uint32_t tracePid_ = 0;
};

} // namespace vtsim

#endif // VTSIM_MEM_DRAM_HH
