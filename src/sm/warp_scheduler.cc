#include "sm/warp_scheduler.hh"

#include "common/log.hh"

namespace vtsim {

namespace {

/** CandidateProbe over an explicit list: linear scans, remembering the
 *  index of the last candidate found. */
class ListProbe final : public CandidateProbe
{
  public:
    explicit ListProbe(const std::vector<WarpCandidate> &candidates)
        : cands_(candidates)
    {}

    bool
    has(std::uint64_t key) override
    {
        for (std::size_t i = 0; i < cands_.size(); ++i) {
            if (cands_[i].key == key) {
                found = i;
                return true;
            }
        }
        return false;
    }

    std::uint64_t
    firstFrom(std::uint64_t from) override
    {
        std::size_t best = cands_.size();
        for (std::size_t i = 0; i < cands_.size(); ++i) {
            if (cands_[i].key < from)
                continue;
            if (best == cands_.size() || cands_[i].age < cands_[best].age)
                best = i;
        }
        if (best == cands_.size())
            return noCandidate;
        found = best;
        return cands_[best].key;
    }

    std::size_t found = 0;

  private:
    const std::vector<WarpCandidate> &cands_;
};

} // namespace

std::unique_ptr<WarpScheduler>
WarpScheduler::create(SchedulerPolicy policy, std::uint32_t active_set)
{
    switch (policy) {
      case SchedulerPolicy::LooseRoundRobin:
        return std::make_unique<LrrScheduler>();
      case SchedulerPolicy::GreedyThenOldest:
        return std::make_unique<GtoScheduler>();
      case SchedulerPolicy::TwoLevel:
        return std::make_unique<TwoLevelScheduler>(active_set);
    }
    VTSIM_PANIC("unknown scheduler policy");
}

std::size_t
WarpScheduler::pick(const std::vector<WarpCandidate> &candidates)
{
    VTSIM_ASSERT(!candidates.empty(), "pick() with no candidates");
    ListProbe probe(candidates);
    choose(probe);
    return probe.found;
}

std::uint64_t
LrrScheduler::choose(CandidateProbe &probe)
{
    // First candidate strictly after the last issued key in circular
    // order; falls back to the oldest.
    std::uint64_t key = probe.firstFrom(lastKey_ + 1);
    if (key == noCandidate)
        key = probe.firstFrom(0);
    if (key != noCandidate)
        lastKey_ = key;
    return key;
}

std::uint64_t
GtoScheduler::choose(CandidateProbe &probe)
{
    if (greedyKey_ != noCandidate && probe.has(greedyKey_))
        return greedyKey_; // Stay greedy.
    const std::uint64_t oldest = probe.firstFrom(0);
    if (oldest != noCandidate)
        greedyKey_ = oldest;
    return oldest;
}

std::uint64_t
TwoLevelScheduler::choose(CandidateProbe &probe)
{
    // Prefer ready members of the active set, LRR among them.
    const auto split = activeSet_.upper_bound(lastKey_);
    for (auto it = split; it != activeSet_.end(); ++it)
        if (probe.has(*it))
            return lastKey_ = *it;
    for (auto it = activeSet_.begin(); it != split; ++it)
        if (probe.has(*it))
            return lastKey_ = *it;

    // Nothing in the active set is ready: promote the oldest pending warp
    // (evicting the smallest-key member when full) and issue it.
    const std::uint64_t oldest = probe.firstFrom(0);
    if (oldest == noCandidate)
        return noCandidate;
    if (activeSet_.size() >= activeSetSize_)
        activeSet_.erase(activeSet_.begin());
    activeSet_.insert(oldest);
    return lastKey_ = oldest;
}

} // namespace vtsim
