/**
 * @file
 * Functional backing store for the simulated global memory space, plus a
 * bump allocator the host-side workload code uses to place buffers.
 */

#ifndef VTSIM_FUNC_GLOBAL_MEMORY_HH
#define VTSIM_FUNC_GLOBAL_MEMORY_HH

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "sim/serializer.hh"

namespace vtsim {

/**
 * Sparse, paged, byte-addressable memory. Pages materialise zero-filled on
 * first touch, so terabyte-scale address spaces cost only what is used.
 */
class GlobalMemory
{
  public:
    static constexpr std::uint32_t pageSize = 4096;

    /**
     * Defer-writes mode (sharded epochs): write8()/write32() become
     * no-ops and reads return the pre-epoch contents, so SM shard
     * workers can read concurrently without materialising pages. The
     * epoch barrier turns the mode off and replays the logged global
     * ops in canonical order (see Gpu's replay pass).
     */
    void setDeferWrites(bool defer) { deferWrites_ = defer; }

    /** Read one byte (zero if untouched). */
    std::uint8_t read8(Addr addr) const;
    void write8(Addr addr, std::uint8_t value);

    /** Little-endian 32-bit accessors (no alignment requirement). */
    std::uint32_t read32(Addr addr) const;
    void write32(Addr addr, std::uint32_t value);

    float
    readF32(Addr addr) const
    {
        return std::bit_cast<float>(read32(addr));
    }

    void
    writeF32(Addr addr, float value)
    {
        write32(addr, std::bit_cast<std::uint32_t>(value));
    }

    /** Bulk copy-in of 32-bit words starting at @p addr. */
    void writeWords(Addr addr, const std::vector<std::uint32_t> &words);
    void writeFloats(Addr addr, const std::vector<float> &values);

    /** Bulk copy-out of @p count words starting at @p addr. */
    std::vector<std::uint32_t> readWords(Addr addr,
                                         std::uint64_t count) const;
    std::vector<float> readFloats(Addr addr, std::uint64_t count) const;

    /**
     * Device-side buffer allocation (bump allocator).
     *
     * @param bytes Region size.
     * @param align Alignment, default one cache line generation (256 B).
     * @return Base address of the region.
     */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 256);

    /** Number of pages materialised so far. */
    std::uint64_t touchedPages() const { return pages_.size(); }

    /** Drop every page and rewind the allocator (arena reuse). */
    void
    reset()
    {
        pages_.clear();
        memoPage_ = noPage;
        memoData_ = nullptr;
        allocNext_ = 0x1000;
    }

    // Checkpoint the full functional state. Pages go out sorted by page
    // number so the byte stream is independent of hash iteration order.
    void save(Serializer &ser) const;
    void restore(Deserializer &des);

  private:
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> pages_;
    Addr allocNext_ = 0x1000; ///< Keep address 0 unmapped, as a null page.
    bool deferWrites_ = false;

    // One-entry memo for the hot read32/write32 paths: a warp's lanes
    // overwhelmingly touch the same page back-to-back, and unordered_map
    // guarantees reference stability across inserts, so the cached data
    // pointer stays valid until pages_ is cleared (reset()/restore(),
    // which drop it). Only materialised pages are memoised. Never
    // refreshed while deferWrites_ is on — shard workers read
    // concurrently inside an epoch, so an update there would race;
    // hits on a pre-epoch entry are read-only and safe. noPage is
    // unreachable (Addr max / pageSize never yields all-ones).
    static constexpr std::uint64_t noPage = ~std::uint64_t{0};
    mutable std::uint64_t memoPage_ = noPage;
    mutable std::uint8_t *memoData_ = nullptr;
};

} // namespace vtsim

#endif // VTSIM_FUNC_GLOBAL_MEMORY_HH
