/**
 * @file
 * Set-associative, LRU, write-through/no-write-allocate cache with an MSHR
 * table — the structure used for both the per-SM L1D and the per-partition
 * L2 slice. The cache is a passive tag/miss-tracking structure; timing is
 * orchestrated by its owner (LdstUnit or MemoryPartition).
 */

#ifndef VTSIM_MEM_CACHE_HH
#define VTSIM_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/mem_request.hh"
#include "sim/sim_component.hh"
#include "stats/stats.hh"

namespace vtsim {

/** Cache geometry and miss-handling resources. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t size = 16 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t lineSize = 128;
    std::uint32_t numMshrs = 32;
    std::uint32_t mshrTargets = 8;
};

/** Result of presenting a (load-like) request to the cache. */
enum class CacheOutcome
{
    Hit,            ///< Line present.
    MissNew,        ///< New MSHR allocated: caller must fetch the line.
    MissMerged,     ///< Folded into an in-flight miss; no fetch needed.
    RejectMshrFull, ///< No MSHR free: caller must retry later.
    RejectTargets,  ///< MSHR exists but its target list is full: retry.
};

/**
 * One outstanding miss: the line being fetched plus every request that
 * wants it.
 */
struct MshrEntry
{
    Addr lineAddr = 0;
    std::vector<MemRequest> targets;
};

/** Outcome of installing a line (fill or write-allocate). */
struct FillResult
{
    /** Requests parked on the line's MSHR (empty for write-allocate). */
    std::vector<MemRequest> targets;
    /** A dirty victim was evicted and must be written back. */
    bool evictedDirty = false;
    Addr evictedLine = 0;
};

class Cache : public SimComponent
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Present a load/atomic request. On MissNew the caller owns fetching
     * the line and must eventually call fill(); on Hit or MissMerged the
     * request is either complete or parked in the MSHR.
     */
    CacheOutcome access(const MemRequest &req);

    /**
     * Write-through store lookup: touches LRU on hit, never allocates.
     * @return true on hit.
     */
    bool storeAccess(Addr line_addr);

    /**
     * Write-back, write-allocate (no-fetch) store: marks the line dirty,
     * allocating it without a memory fetch on a miss (GPU stores are
     * full-line coalesced; the data lives in the functional memory).
     * The caller must write back the evicted dirty victim, if any.
     */
    FillResult storeAllocate(Addr line_addr);

    /** Probe without side effects. */
    bool probe(Addr line_addr) const;

    /**
     * The fetched line arrived: insert it (evicting LRU if needed) and
     * return every parked request waiting on it (first is the miss
     * initiator), plus any dirty victim needing writeback.
     */
    FillResult fill(Addr line_addr);

    /** True when the line is present and dirty. */
    bool probeDirty(Addr line_addr) const;

    /** Invalidate everything (kernel boundary). MSHRs must be idle. */
    void flush();

    std::uint32_t mshrsInUse() const { return mshrs_.size(); }
    std::uint32_t numSets() const { return numSets_; }
    const CacheParams &params() const { return params_; }

    StatGroup &stats() { return stats_; }

    // Raw stat accessors used by benches.
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Per-grid load hit/miss split (concurrent launches). The aggregate
     *  hits()/misses() counters are unchanged by the split: both are
     *  bumped on every access, so solo-run numbers stay identical. */
    std::uint64_t gridHits(GridId g) const
    { return gridHits_.at(g).value(); }
    std::uint64_t gridMisses(GridId g) const
    { return gridMisses_.at(g).value(); }

    // SimComponent lifecycle (a cache is passive: no tick/next-event).
    void reset() override;
    void save(Serializer &ser) const override;
    void restore(Deserializer &des) override;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0; ///< LRU timestamp.
    };

    std::uint32_t setIndex(Addr line_addr) const;
    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;
    /** Insert @p line_addr; reports a dirty victim through @p result. */
    Line *insertLine(Addr line_addr, FillResult &result);

    CacheParams params_;
    std::uint32_t numSets_;
    std::vector<Line> lines_; ///< numSets_ * assoc, set-major.
    /**
     * Per-set most-recently-hit way. Pure lookup accelerator: findLine
     * probes this way first before sweeping the set, exploiting the
     * temporal locality of coalesced warp accesses. Never affects
     * replacement or stats, so it is mutable for the const probe path.
     */
    mutable std::vector<std::uint32_t> mruWay_;
    std::unordered_map<Addr, MshrEntry> mshrs_;
    std::uint64_t useClock_ = 0;

    StatGroup stats_;
    Counter hits_;
    Counter misses_;
    Counter mshrMerges_;
    Counter mshrRejects_;
    Counter evictions_;
    Counter dirtyEvictions_;
    Counter storeHits_;
    Counter storeMisses_;
    /** Load hits/misses attributed to the issuing grid (MemRequest::grid).
     *  A line brought in by one grid and hit by another counts the hit
     *  for the hitting grid — invalidate-between-kernels is no longer a
     *  usable attribution boundary once kernels co-run. */
    std::array<Counter, maxGrids> gridHits_;
    std::array<Counter, maxGrids> gridMisses_;
};

} // namespace vtsim

#endif // VTSIM_MEM_CACHE_HH
