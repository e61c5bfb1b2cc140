/**
 * @file
 * Unit tests for the warp scheduling policies.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "sm/warp_scheduler.hh"

namespace vtsim {
namespace {

std::vector<WarpCandidate>
cands(std::initializer_list<std::uint64_t> keys)
{
    std::vector<WarpCandidate> out;
    for (auto k : keys)
        out.push_back({k, k});
    return out;
}

TEST(Lrr, RotatesThroughCandidates)
{
    LrrScheduler s;
    const auto c = cands({10, 20, 30});
    EXPECT_EQ(c[s.pick(c)].key, 10u);
    EXPECT_EQ(c[s.pick(c)].key, 20u);
    EXPECT_EQ(c[s.pick(c)].key, 30u);
    EXPECT_EQ(c[s.pick(c)].key, 10u); // wraps
}

TEST(Lrr, SkipsMissingCandidates)
{
    LrrScheduler s;
    const auto first = cands({10, 20, 30});
    EXPECT_EQ(first[s.pick(first)].key, 10u);
    // 20 unavailable next cycle: goes to 30.
    const auto c = cands({10, 30});
    EXPECT_EQ(c[s.pick(c)].key, 30u);
}

TEST(Gto, StaysGreedyWhileAvailable)
{
    GtoScheduler s;
    const auto c = cands({5, 7, 9});
    const auto first = c[s.pick(c)].key;
    EXPECT_EQ(first, 5u); // oldest
    EXPECT_EQ(c[s.pick(c)].key, 5u);
    EXPECT_EQ(c[s.pick(c)].key, 5u);
}

TEST(Gto, FallsBackToOldestWhenGreedyStalls)
{
    GtoScheduler s;
    s.pick(cands({5, 7, 9})); // greedy = 5
    const auto c = cands({9, 7}); // 5 stalled
    EXPECT_EQ(c[s.pick(c)].key, 7u); // oldest available
    // And stays greedy on 7 afterwards.
    const auto c2 = cands({9, 7, 5});
    EXPECT_EQ(c2[s.pick(c2)].key, 7u);
}

TEST(TwoLevel, PrefersActiveSetMembers)
{
    TwoLevelScheduler s(2);
    // First pick promotes the oldest into the active set.
    auto c = cands({1, 2, 3, 4});
    EXPECT_EQ(c[s.pick(c)].key, 1u);
    // 1 still ready: stays inside the active set.
    EXPECT_EQ(c[s.pick(c)].key, 1u);
    // 1 stalls: promote 2.
    auto c2 = cands({2, 3, 4});
    EXPECT_EQ(c2[s.pick(c2)].key, 2u);
    // Both 1 and 2 in the set now; LRR between them.
    auto c3 = cands({1, 2, 3, 4});
    const auto k1 = c3[s.pick(c3)].key;
    const auto k2 = c3[s.pick(c3)].key;
    EXPECT_NE(k1, k2);
    EXPECT_TRUE((k1 == 1 || k1 == 2) && (k2 == 1 || k2 == 2));
}

TEST(Factory, CreatesEachPolicy)
{
    for (auto policy : {SchedulerPolicy::LooseRoundRobin,
                        SchedulerPolicy::GreedyThenOldest,
                        SchedulerPolicy::TwoLevel}) {
        auto s = WarpScheduler::create(policy, 4);
        ASSERT_NE(s, nullptr);
        const auto c = cands({3, 1, 2});
        const auto idx = s->pick(c);
        EXPECT_LT(idx, c.size());
    }
}

/** Property: every policy always returns a valid index and, over enough
 *  rounds with all warps ready, eventually schedules every warp. */
class PolicyProperty : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(PolicyProperty, ValidIndexOnRandomCandidateSets)
{
    auto s = WarpScheduler::create(GetParam(), 4);
    Rng rng(99);
    for (int round = 0; round < 500; ++round) {
        std::vector<WarpCandidate> c;
        const int n = 1 + rng.nextBelow(12);
        for (int i = 0; i < n; ++i) {
            const std::uint64_t key = rng.nextBelow(64);
            bool dup = false;
            for (const auto &e : c)
                dup |= e.key == key;
            if (!dup)
                c.push_back({key, key});
        }
        const auto idx = s->pick(c);
        ASSERT_LT(idx, c.size());
    }
}

TEST_P(PolicyProperty, AllWarpsCompleteFiniteWork)
{
    // Warps retire after five issues; every policy must drain the pool
    // (greedy policies drain oldest-first, but must still drain).
    auto s = WarpScheduler::create(GetParam(), 2);
    std::map<std::uint64_t, int> remaining;
    for (std::uint64_t k = 0; k < 6; ++k)
        remaining[k] = 5;
    int rounds = 0;
    while (!remaining.empty() && rounds < 1000) {
        std::vector<WarpCandidate> avail;
        for (const auto &[k, n] : remaining)
            avail.push_back({k, k});
        const auto idx = s->pick(avail);
        const auto key = avail[idx].key;
        if (--remaining[key] == 0)
            remaining.erase(key);
        ++rounds;
    }
    EXPECT_TRUE(remaining.empty());
    EXPECT_EQ(rounds, 30);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values(
                             SchedulerPolicy::LooseRoundRobin,
                             SchedulerPolicy::GreedyThenOldest,
                             SchedulerPolicy::TwoLevel));

// --- Differential: probe-based policies vs the list-scan originals ------

/** The list-scan pick bodies the probe-based policies replaced, kept
 *  verbatim as the reference. */
struct RefLrr
{
    std::uint64_t lastKey_ = 0;

    std::size_t
    pick(const std::vector<WarpCandidate> &candidates)
    {
        std::size_t best = candidates.size();
        std::size_t smallest = 0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (candidates[i].key < candidates[smallest].key)
                smallest = i;
            if (candidates[i].key > lastKey_ &&
                (best == candidates.size() ||
                 candidates[i].key < candidates[best].key)) {
                best = i;
            }
        }
        const std::size_t chosen =
            best != candidates.size() ? best : smallest;
        lastKey_ = candidates[chosen].key;
        return chosen;
    }
};

struct RefGto
{
    std::uint64_t greedyKey_ = ~0ull;

    std::size_t
    pick(const std::vector<WarpCandidate> &candidates)
    {
        std::size_t oldest = 0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (candidates[i].key == greedyKey_) {
                return i; // Stay greedy.
            }
            if (candidates[i].age < candidates[oldest].age)
                oldest = i;
        }
        greedyKey_ = candidates[oldest].key;
        return oldest;
    }
};

struct RefTwoLevel
{
    std::uint32_t activeSetSize_;
    std::set<std::uint64_t> activeSet_;
    std::uint64_t lastKey_ = 0;
    std::uint32_t evictions = 0; ///< Test instrumentation only.

    std::size_t
    pick(const std::vector<WarpCandidate> &candidates)
    {
        std::size_t best = candidates.size();
        std::size_t smallest = candidates.size();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (!activeSet_.count(candidates[i].key))
                continue;
            if (smallest == candidates.size() ||
                candidates[i].key < candidates[smallest].key) {
                smallest = i;
            }
            if (candidates[i].key > lastKey_ &&
                (best == candidates.size() ||
                 candidates[i].key < candidates[best].key)) {
                best = i;
            }
        }
        if (smallest != candidates.size()) {
            const std::size_t chosen =
                best != candidates.size() ? best : smallest;
            lastKey_ = candidates[chosen].key;
            return chosen;
        }
        std::size_t oldest = 0;
        for (std::size_t i = 1; i < candidates.size(); ++i)
            if (candidates[i].age < candidates[oldest].age)
                oldest = i;
        if (activeSet_.size() >= activeSetSize_) {
            activeSet_.erase(activeSet_.begin());
            ++evictions;
        }
        activeSet_.insert(candidates[oldest].key);
        lastKey_ = candidates[oldest].key;
        return oldest;
    }
};

/** A CandidateProbe shaped like the SM's: a sorted key set probed with
 *  lookups and lower bounds. */
class SortedProbe final : public CandidateProbe
{
  public:
    explicit SortedProbe(const std::vector<WarpCandidate> &candidates)
    {
        for (const WarpCandidate &c : candidates)
            keys_.insert(c.key);
    }

    bool has(std::uint64_t key) override { return keys_.count(key) != 0; }

    std::uint64_t
    firstFrom(std::uint64_t from) override
    {
        const auto it = keys_.lower_bound(from);
        return it == keys_.end() ? noCandidate : *it;
    }

  private:
    std::set<std::uint64_t> keys_;
};

/**
 * Warps arrive in CTAs of 1-8 (keys age * 256 + w, age == key as in the
 * SM), retire at random — the greedy warp included, on purpose — and a
 * random subset is issuable each cycle, listed in shuffled order. Both
 * the list adapter and a sorted probe must choose the reference's key
 * every cycle; a cycle with no candidates must leave the policy state
 * untouched.
 */
template <typename Ref>
void
runDifferential(SchedulerPolicy policy, Ref &ref, std::uint64_t seed)
{
    auto viaList = WarpScheduler::create(policy, 3);
    auto viaProbe = WarpScheduler::create(policy, 3);
    Rng rng(seed);
    std::vector<std::uint64_t> live;
    std::uint64_t next_age = 0;
    std::uint64_t last_chosen = noCandidate;
    int greedy_retired = 0;
    int compared = 0;
    for (int cycle = 0; cycle < 4000; ++cycle) {
        if (live.size() < 6 || (live.size() < 40 && rng.nextBelow(8) == 0)) {
            const std::uint64_t warps = 1 + rng.nextBelow(8);
            for (std::uint64_t w = 0; w < warps; ++w)
                live.push_back(next_age * 256 + w);
            ++next_age;
        }
        if (rng.nextBelow(4) == 0 && !live.empty()) {
            // Retire the last chosen warp half the time, else any warp.
            std::size_t victim = rng.nextBelow(live.size());
            if (rng.nextBelow(2) == 0) {
                for (std::size_t i = 0; i < live.size(); ++i)
                    if (live[i] == last_chosen)
                        victim = i;
            }
            greedy_retired += live[victim] == last_chosen ? 1 : 0;
            live.erase(live.begin() + victim);
        }
        std::vector<WarpCandidate> cands;
        for (const std::uint64_t key : live)
            if (rng.nextBelow(3) != 0)
                cands.push_back({key, key});
        for (std::size_t i = cands.size(); i > 1; --i)
            std::swap(cands[i - 1], cands[rng.nextBelow(i)]);

        SortedProbe probe(cands);
        const std::uint64_t got_probe = viaProbe->pick(probe);
        if (cands.empty()) {
            ASSERT_EQ(got_probe, noCandidate) << "cycle " << cycle;
            continue;
        }
        const std::uint64_t want = cands[ref.pick(cands)].key;
        const std::uint64_t got_list = cands[viaList->pick(cands)].key;
        ASSERT_EQ(got_list, want) << toString(policy) << " cycle " << cycle;
        ASSERT_EQ(got_probe, want) << toString(policy) << " cycle " << cycle;
        last_chosen = want;
        ++compared;
    }
    EXPECT_GT(compared, 3000);
    EXPECT_GT(greedy_retired, 50);
}

TEST(SchedulerDifferential, LrrMatchesListScan)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RefLrr ref;
        runDifferential(SchedulerPolicy::LooseRoundRobin, ref, seed);
    }
}

TEST(SchedulerDifferential, GtoMatchesListScan)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RefGto ref;
        runDifferential(SchedulerPolicy::GreedyThenOldest, ref, seed);
    }
}

TEST(SchedulerDifferential, TwoLevelMatchesListScanThroughEvictions)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RefTwoLevel ref{3, {}, 0, 0};
        runDifferential(SchedulerPolicy::TwoLevel, ref, seed);
        EXPECT_GT(ref.evictions, 100u) << "seed " << seed;
    }
}

} // namespace
} // namespace vtsim
