/**
 * @file
 * Perfetto / Chrome trace-event exporter (the `trace.json` format
 * consumed by ui.perfetto.dev and chrome://tracing).
 *
 * The writer maps the simulator onto the trace-event process/thread
 * model: each SM is a "process" (pid = SM id) whose "threads" are HW
 * CTA slots, and each DRAM channel is a process (pid = numSms +
 * channel) whose threads are banks. Virtual Thread residency becomes
 * nested duration events per slot — "active", "inactive",
 * "swapping-out", "swapping-in" — so the VT state machine is directly
 * visible on the timeline; barrier releases, CTA admission/finish, DRAM
 * row hits/misses, warp issues and L1 hits/misses are instant events.
 * Timestamps are simulated cycles reported as microseconds (1 cycle ==
 * 1 us), so the Perfetto time axis reads directly in cycles.
 *
 * A writer records the TraceCategory bits of its mask; emitters test
 * enabled() before they format an event. It is per-Gpu state plumbed
 * to components by pointer, and a sharded run stages events per
 * component (TraceStage), so tracing composes with --jobs and
 * --sim-threads.
 */

#ifndef VTSIM_TELEMETRY_TRACE_JSON_HH
#define VTSIM_TELEMETRY_TRACE_JSON_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vtsim::telemetry {

/** Event categories; each is one bit of a writer's mask (traceBit). */
enum class TraceCategory : std::uint32_t
{
    Issue,   ///< Warp instruction issue, with its disassembly.
    Mem,     ///< L1 hits and misses.
    Swap,    ///< Virtual Thread residency spans.
    Cta,     ///< CTA admission and finish.
    Dram,    ///< DRAM row hits and misses.
    Barrier, ///< Barrier releases.
};

constexpr std::uint32_t
traceBit(TraceCategory category)
{
    return 1u << static_cast<std::uint32_t>(category);
}

/** Every category ("all"). */
constexpr std::uint32_t allTraceCategories =
    (traceBit(TraceCategory::Barrier) << 1) - 1;

/** What a writer records unless told otherwise: issue and mem are
 *  opt-in (one event per warp instruction, per L1 access). */
constexpr std::uint32_t defaultTraceCategories =
    traceBit(TraceCategory::Swap) | traceBit(TraceCategory::Cta) |
    traceBit(TraceCategory::Dram) | traceBit(TraceCategory::Barrier);

/** Parse a comma-separated category list ("issue,swap") into a mask:
 *  issue, mem, swap, cta, dram, barrier, or all. Throws FatalError on
 *  an unknown name. */
std::uint32_t parseTraceCategories(const std::string &list);

class TraceJsonWriter
{
  public:
    /** Write to @p path (opened now, footer written on destruction),
     *  recording the @p categories mask. */
    explicit TraceJsonWriter(
        const std::string &path,
        std::uint32_t categories = defaultTraceCategories);

    /** Write to an existing stream (not owned). */
    explicit TraceJsonWriter(
        std::ostream &os, std::uint32_t categories = defaultTraceCategories);

    virtual ~TraceJsonWriter();
    TraceJsonWriter(const TraceJsonWriter &) = delete;
    TraceJsonWriter &operator=(const TraceJsonWriter &) = delete;

    /** Does this writer record @p category? */
    bool enabled(TraceCategory category) const
    { return (categories_ & traceBit(category)) != 0; }

    std::uint32_t categories() const { return categories_; }

    /** Emit the closing bracket; further events are dropped. */
    void close();

    /** Name the track-model process @p pid (metadata event). */
    void processName(std::uint32_t pid, const std::string &name);

    /** Name thread @p tid of process @p pid (metadata event). */
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    const std::string &name);

    /** Open a duration event ("B"). Nest strictly within the track.
     *  Virtual so TraceStage can buffer instead of write. */
    virtual void begin(std::uint32_t pid, std::uint32_t tid, Cycle cycle,
                       const std::string &name,
                       const std::string &category);

    /** Close the innermost open duration event ("E"). */
    virtual void end(std::uint32_t pid, std::uint32_t tid, Cycle cycle);

    /** Zero-duration marker ("i", thread scope). */
    virtual void instant(std::uint32_t pid, std::uint32_t tid, Cycle cycle,
                         const std::string &name,
                         const std::string &category);

  protected:
    /** Subclass (TraceStage) that never opens a sink. */
    explicit TraceJsonWriter(std::uint32_t categories)
        : categories_(categories)
    {}

  private:
    void event(const std::string &json);

    std::uint32_t categories_;
    std::unique_ptr<std::ofstream> file_;
    std::ostream *os_ = nullptr;
    bool open_ = false;
    bool firstEvent_ = true;
};

/**
 * A per-component staging buffer behind the TraceJsonWriter interface
 * (sharded simulation): during a parallel epoch each component writes
 * into its own stage, and the epoch barrier replays every stage into
 * the real writer sorted by (cycle, rank, seq). The rank encodes the
 * within-cycle emission order of the sequential run (admission scan,
 * then partitions, then SM ticks — see Gpu::attachTraceJson), so the
 * merged file is byte-identical to the sequential one.
 */
class TraceStage final : public TraceJsonWriter
{
  public:
    struct Event
    {
        Cycle cycle;
        std::uint32_t rank;
        std::uint64_t seq; ///< Emission order within this stage.
        std::uint8_t kind; ///< 0 begin, 1 end, 2 instant.
        std::uint32_t pid;
        std::uint32_t tid;
        std::string name;
        std::string cat;
    };

    /** A stage recording the real writer's @p categories at @p rank. */
    TraceStage(std::uint32_t categories, std::uint32_t rank)
        : TraceJsonWriter(categories), rank_(rank)
    {}

    /** The within-cycle rank of the component that writes this stage;
     *  the Gpu epoch driver retargets it around admission phases. */
    void setRank(std::uint32_t rank) { rank_ = rank; }

    void begin(std::uint32_t pid, std::uint32_t tid, Cycle cycle,
               const std::string &name, const std::string &cat) override
    { push({cycle, rank_, seq_++, 0, pid, tid, name, cat}); }

    void end(std::uint32_t pid, std::uint32_t tid, Cycle cycle) override
    { push({cycle, rank_, seq_++, 1, pid, tid, {}, {}}); }

    void instant(std::uint32_t pid, std::uint32_t tid, Cycle cycle,
                 const std::string &name, const std::string &cat) override
    { push({cycle, rank_, seq_++, 2, pid, tid, name, cat}); }

    bool empty() const { return events_.empty(); }

    /** Move the buffered events out (the stage resets for the next
     *  epoch); the caller merges stages and replays into the sink. */
    std::vector<Event> drain()
    {
        std::vector<Event> out = std::move(events_);
        events_.clear();
        seq_ = 0;
        return out;
    }

    /** Replay one merged event into the real writer. */
    static void replay(const Event &e, TraceJsonWriter &sink);

  private:
    void push(Event e) { events_.push_back(std::move(e)); }

    std::uint32_t rank_;
    std::uint64_t seq_ = 0;
    std::vector<Event> events_;
};

} // namespace vtsim::telemetry

#endif // VTSIM_TELEMETRY_TRACE_JSON_HH
