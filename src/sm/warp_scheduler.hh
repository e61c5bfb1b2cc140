/**
 * @file
 * Warp scheduling policies (LRR, GTO, two-level). A policy chooses among
 * the warps that are issuable this cycle; it holds no warp state of its
 * own beyond the rotation/greed bookkeeping.
 */

#ifndef VTSIM_SM_WARP_SCHEDULER_HH
#define VTSIM_SM_WARP_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/types.hh"
#include "config/gpu_config.hh"
#include "sim/sim_component.hh"

namespace vtsim {

/** "No issuable warp": larger than any real key (age * 256 + w). */
inline constexpr std::uint64_t noCandidate = ~0ull;

/**
 * A schedulable warp as an explicit list entry. The key is unique and
 * stable for the lifetime of the warp's CTA residency; age orders warps
 * oldest first (CTA admission order, then warp index). The SM's keys are
 * age * 256 + w, so there the key is the age.
 */
struct WarpCandidate
{
    std::uint64_t key;  ///< Stable identity.
    std::uint64_t age;  ///< Lower = older.
};

/**
 * One scheduler slot's issuable warps this cycle, enumerated oldest
 * first (ascending key) and evaluated lazily: a policy pays only for the
 * keys it probes, so a greedy pick costs one probe, not a sweep.
 */
class CandidateProbe
{
  public:
    /** True when the warp with @p key is issuable this cycle. */
    virtual bool has(std::uint64_t key) = 0;

    /** The oldest issuable warp with key >= @p from, or noCandidate. */
    virtual std::uint64_t firstFrom(std::uint64_t from) = 0;

  protected:
    ~CandidateProbe() = default;
};

class WarpScheduler : public SimComponent
{
  public:
    /**
     * Choose one of @p probe's candidates. Returns its key, or
     * noCandidate (leaving the policy state untouched) when there is
     * none. The chosen key is always the last one @p probe reported
     * issuable, so the probe can hand back the warp it found.
     */
    std::uint64_t pick(CandidateProbe &probe) { return choose(probe); }

    /**
     * The same rule over an explicit, nonempty candidate list, ranked
     * oldest first by age. @return Index into @p candidates.
     */
    std::size_t pick(const std::vector<WarpCandidate> &candidates);

    /** Factory for the configured policy. */
    static std::unique_ptr<WarpScheduler> create(SchedulerPolicy policy,
                                                 std::uint32_t active_set);

  private:
    virtual std::uint64_t choose(CandidateProbe &probe) = 0;
};

/** Loose round-robin: rotate fairly through issuable warps. */
class LrrScheduler : public WarpScheduler
{
  public:
    void reset() override { lastKey_ = 0; }

    void
    save(Serializer &ser) const override
    {
        const std::size_t sec = ser.beginSection("wlrr");
        ser.put(lastKey_);
        ser.endSection(sec);
    }

    void
    restore(Deserializer &des) override
    {
        des.beginSection("wlrr");
        des.get(lastKey_);
        des.endSection();
    }

  private:
    std::uint64_t choose(CandidateProbe &probe) override;

    std::uint64_t lastKey_ = 0;
};

/** Greedy-then-oldest: stay on the same warp until it stalls, then take
 *  the oldest ready warp. */
class GtoScheduler : public WarpScheduler
{
  public:
    void reset() override { greedyKey_ = noCandidate; }

    void
    save(Serializer &ser) const override
    {
        const std::size_t sec = ser.beginSection("wgto");
        ser.put(greedyKey_);
        ser.endSection(sec);
    }

    void
    restore(Deserializer &des) override
    {
        des.beginSection("wgto");
        des.get(greedyKey_);
        des.endSection();
    }

  private:
    std::uint64_t choose(CandidateProbe &probe) override;

    std::uint64_t greedyKey_ = noCandidate;
};

/** Two-level: a small active set scheduled LRR; stalled members are
 *  replaced from the pending pool oldest-first. */
class TwoLevelScheduler : public WarpScheduler
{
  public:
    explicit TwoLevelScheduler(std::uint32_t active_set_size)
        : activeSetSize_(active_set_size ? active_set_size : 1)
    {}

    void
    reset() override
    {
        activeSet_.clear();
        lastKey_ = 0;
    }

    void
    save(Serializer &ser) const override
    {
        const std::size_t sec = ser.beginSection("w2lv");
        // std::set iterates sorted, so the stream is deterministic.
        std::vector<std::uint64_t> members(activeSet_.begin(),
                                           activeSet_.end());
        ser.putVec(members);
        ser.put(lastKey_);
        ser.endSection(sec);
    }

    void
    restore(Deserializer &des) override
    {
        des.beginSection("w2lv");
        std::vector<std::uint64_t> members;
        des.getVec(members);
        activeSet_.clear();
        activeSet_.insert(members.begin(), members.end());
        des.get(lastKey_);
        des.endSection();
    }

  private:
    std::uint64_t choose(CandidateProbe &probe) override;

    std::uint32_t activeSetSize_;
    std::set<std::uint64_t> activeSet_;
    std::uint64_t lastKey_ = 0;
};

} // namespace vtsim

#endif // VTSIM_SM_WARP_SCHEDULER_HH
