/**
 * @file
 * Binary checkpoint archive for the SimComponent lifecycle.
 *
 * A Serializer appends trivially-copyable scalars, strings and vectors
 * to a growing byte buffer; a Deserializer reads them back in the same
 * order. State is framed into named sections — beginSection() writes a
 * four-character tag plus a placeholder length that endSection() patches
 * — so a reader can verify, per component, that it consumed exactly the
 * bytes the writer produced (the round-trip size assert), and external
 * tooling (scripts/validate_checkpoint.py) can walk a checkpoint without
 * understanding component internals.
 *
 * On-disk checkpoint format "vtsim-ckpt-v1" (written by Gpu::saveCheckpoint):
 *   8 bytes  magic "vtsimCKP"
 *   u32      version (4)
 *   u64      payload size in bytes
 *   payload  top-level sections back to back: tag[4] + u32 len + body
 * Multi-byte values are little-endian (vtsim only targets LE hosts; the
 * Serializer asserts this once at construction).
 */

#ifndef VTSIM_SIM_SERIALIZER_HH
#define VTSIM_SIM_SERIALIZER_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace vtsim {

class MemResponseSink;

/**
 * Serializable as raw bytes: trivially copyable AND free of padding
 * bytes (floating-point types are exempt from the uniqueness trait but
 * carry no padding). Padding would leak indeterminate memory into the
 * checkpoint and break byte-determinism — a struct that fails this
 * must be serialized field by field instead.
 */
template <typename T>
inline constexpr bool kPackedSerializable =
    std::is_trivially_copyable_v<T> &&
    (std::has_unique_object_representations_v<T> ||
     std::is_floating_point_v<T>);

class Serializer
{
  public:
    Serializer();

    void putBytes(const void *p, std::size_t n);

    template <typename T>
    void
    put(const T &v)
    {
        static_assert(kPackedSerializable<T>,
                      "put(): type has padding bytes (or is not "
                      "trivially copyable) — serialize field-wise");
        putBytes(&v, sizeof(T));
    }

    void putString(const std::string &s);

    /** A vector of trivially-copyable elements: u64 count + raw bytes. */
    template <typename T>
    void
    putVec(const std::vector<T> &v)
    {
        static_assert(kPackedSerializable<T>,
                      "putVec(): element type has padding bytes (or is "
                      "not trivially copyable) — serialize field-wise");
        put<std::uint64_t>(v.size());
        if (!v.empty())
            putBytes(v.data(), v.size() * sizeof(T));
    }

    /**
     * Open a section tagged with exactly four characters (e.g. "smc0").
     * Returns a handle for endSection(); sections may nest.
     */
    std::size_t beginSection(const char tag[5]);
    void endSection(std::size_t handle);

    const std::vector<std::uint8_t> &buffer() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size);
    explicit Deserializer(const std::vector<std::uint8_t> &buf);

    void getBytes(void *p, std::size_t n);

    template <typename T>
    T
    get()
    {
        static_assert(kPackedSerializable<T>,
                      "get(): type has padding bytes (or is not "
                      "trivially copyable) — deserialize field-wise");
        T v;
        getBytes(&v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    get(T &v)
    {
        v = get<T>();
    }

    std::string getString();

    template <typename T>
    void
    getVec(std::vector<T> &v)
    {
        static_assert(kPackedSerializable<T>,
                      "getVec(): element type has padding bytes (or is "
                      "not trivially copyable) — deserialize field-wise");
        const std::uint64_t n = get<std::uint64_t>();
        VTSIM_ASSERT(n * sizeof(T) <= remaining(),
                     "checkpoint vector length ", n, " overruns buffer");
        v.resize(n);
        if (n)
            getBytes(v.data(), n * sizeof(T));
    }

    /**
     * Enter the next section and verify its tag; the matching
     * endSection() asserts that exactly the recorded number of bytes
     * was consumed — a component whose restore() reads a different
     * amount of state than its save() wrote fails here, not later.
     */
    void beginSection(const char tag[5]);
    void endSection();

    std::size_t remaining() const { return size_ - pos_; }
    bool finished() const { return pos_ == size_ && sectionEnds_.empty(); }

    /**
     * Restore context: maps a request's source SM id back to the live
     * MemResponseSink (the SM's LdstUnit). Sink pointers are never
     * serialized; Gpu installs this before restoring components whose
     * queues hold in-flight MemRequests.
     */
    MemResponseSink *(*sinkResolver)(void *ctx, std::uint32_t smId) = nullptr;
    void *sinkCtx = nullptr;

    MemResponseSink *
    resolveSink(std::uint32_t sm_id) const
    {
        VTSIM_ASSERT(sinkResolver, "no sink resolver installed");
        return sinkResolver(sinkCtx, sm_id);
    }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::vector<std::size_t> sectionEnds_;
};

} // namespace vtsim

#endif // VTSIM_SIM_SERIALIZER_HH
