/**
 * @file
 * DYNCTA-style dynamic CTA throttling — the *opposite* philosophy to
 * Virtual Thread from the related work the paper positions against:
 * instead of exposing more CTAs to hide latency, throttling lowers the
 * number of schedulable CTAs when the memory system is congested (to
 * protect cache locality and queueing delay) and raises it when the SM
 * starves.
 *
 * The implementation monitors, per epoch, the fraction of scheduler
 * cycles lost to memory stalls versus idleness and nudges a cap on
 * active CTAs up or down. The cap is enforced lazily: existing CTAs are
 * never paused, but no new CTA activates above the cap — the common
 * simplification of DYNCTA-class schemes.
 *
 * The lazy cap also keeps the SM's ready bits simple: a
 * cap change never retracts published warps directly — it only gates
 * future VirtualThreadManager activations, and those fire the CTA
 * issuability callbacks that publish or retract whole CTAs.
 */

#ifndef VTSIM_CTA_CTA_THROTTLER_HH
#define VTSIM_CTA_CTA_THROTTLER_HH

#include <cstdint>

#include "common/types.hh"
#include "sim/serializer.hh"
#include "stats/stats.hh"

namespace vtsim {

/** Throttling policy parameters. */
struct ThrottleParams
{
    std::uint32_t epochCycles = 2048;
    /** Mem-stall fraction above which the cap shrinks. */
    double highWater = 0.55;
    /** Mem-stall fraction below which the cap may grow. */
    double lowWater = 0.30;
    std::uint32_t minCap = 1;
};

class CtaThrottler
{
  public:
    CtaThrottler(const ThrottleParams &params, std::uint32_t max_cap,
                 SmId sm_id);

    /**
     * Record one scheduler-cycle observation and advance the epoch
     * machinery.
     *
     * @param issued A warp instruction issued this scheduler-cycle.
     * @param mem_stalled Nothing issued and >= 1 warp blocked on memory.
     */
    void sample(bool issued, bool mem_stalled);

    /**
     * Record @p n consecutive no-issue observations in one step —
     * equivalent to calling sample(false, mem_stalled) @p n times. The
     * window must not reach an epoch boundary (the caller's horizon
     * stops there, since a boundary may change the cap).
     */
    void sampleIdleN(std::uint64_t n, bool mem_stalled);

    /**
     * The cycle whose sample() call completes the current epoch (and
     * may change the cap), assuming the last sample was at @p now - 1.
     */
    Cycle epochBoundaryCycle(Cycle now) const
    { return now + (params_.epochCycles - 1 - epochSamples_); }

    /** Current cap on active CTAs. */
    std::uint32_t cap() const { return cap_; }

    std::uint64_t decreases() const { return decreases_.value(); }
    std::uint64_t increases() const { return increases_.value(); }
    StatGroup &stats() { return stats_; }

    // Checkpoint plumbing (driven by the owning SmCore).
    void reset();
    void save(Serializer &ser) const;
    void restore(Deserializer &des);

  private:
    ThrottleParams params_;
    std::uint32_t maxCap_;
    std::uint32_t cap_;

    std::uint64_t epochSamples_ = 0;
    std::uint64_t epochIssued_ = 0;
    std::uint64_t epochMemStalled_ = 0;

    StatGroup stats_;
    Counter decreases_;
    Counter increases_;
    ScalarStat capSamples_;
};

} // namespace vtsim

#endif // VTSIM_CTA_CTA_THROTTLER_HH
