/**
 * @file
 * Timing model for the SM's shared-memory (scratchpad) port: a single
 * pipelined port that serialises bank-conflicting passes. Functional data
 * lives in CtaFuncState; this class only accounts time.
 */

#ifndef VTSIM_MEM_SHARED_MEMORY_HH
#define VTSIM_MEM_SHARED_MEMORY_HH

#include "common/types.hh"
#include "sim/serialize_util.hh"
#include "stats/stats.hh"

namespace vtsim {

class SharedMemoryModel
{
  public:
    /**
     * @param latency Conflict-free access latency in cycles.
     * @param name Stat group name.
     */
    SharedMemoryModel(std::uint32_t latency, const std::string &name);

    /**
     * Schedule one warp shared-memory instruction needing @p passes
     * serialised bank passes, arriving at @p now.
     * @return Completion (writeback) cycle.
     */
    Cycle access(std::uint32_t passes, Cycle now);

    /** True when the port can accept a new access at @p now. */
    bool canAccept(Cycle now) const { return portReadyAt_ <= now; }

    /** First cycle the port frees (fast-forward horizon input). */
    Cycle portReadyAt() const { return portReadyAt_; }

    StatGroup &stats() { return stats_; }

    // Lifecycle helpers driven by the owning SmCore.
    void
    reset()
    {
        portReadyAt_ = 0;
        accesses_.reset();
        conflictPasses_.reset();
    }

    void
    save(Serializer &ser) const
    {
        const std::size_t sec = ser.beginSection("shmm");
        ser.put(portReadyAt_);
        saveStat(ser, accesses_);
        saveStat(ser, conflictPasses_);
        ser.endSection(sec);
    }

    void
    restore(Deserializer &des)
    {
        des.beginSection("shmm");
        des.get(portReadyAt_);
        restoreStat(des, accesses_);
        restoreStat(des, conflictPasses_);
        des.endSection();
    }

  private:
    std::uint32_t latency_;
    Cycle portReadyAt_ = 0;

    StatGroup stats_;
    Counter accesses_;
    Counter conflictPasses_; ///< Extra passes beyond the first.
};

} // namespace vtsim

#endif // VTSIM_MEM_SHARED_MEMORY_HH
