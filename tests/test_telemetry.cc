/**
 * @file
 * Telemetry subsystem tests: the stat registry must reproduce the
 * KernelStats the components report through their own getters, the
 * interval sampler's JSONL series must be bit-identical with fast-
 * forward on and off (sampling is a measurement, not a perturbation),
 * and the Perfetto trace export must be valid JSON whose duration
 * events nest per (pid, tid) track, recording exactly the categories
 * it was asked for.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "gpu/gpu.hh"
#include "telemetry/stat_registry.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

using test::smallConfig;
using test::smallVtConfig;

/**
 * Minimal JSON syntax checker — accepts exactly one value spanning the
 * whole input. Good enough to prove the trace export is well-formed
 * without dragging a JSON library into the test suite.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return i_ == s_.size();
    }

  private:
    bool value()
    {
        if (i_ >= s_.size())
            return false;
        switch (s_[i_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++i_; // '{'
        skipWs();
        if (peek() == '}') { ++i_; return true; }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++i_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++i_; continue; }
            if (peek() == '}') { ++i_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++i_; // '['
        skipWs();
        if (peek() == ']') { ++i_; return true; }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++i_; continue; }
            if (peek() == ']') { ++i_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        for (++i_; i_ < s_.size(); ++i_) {
            if (s_[i_] == '\\') { ++i_; continue; }
            if (s_[i_] == '"') { ++i_; return true; }
        }
        return false;
    }

    bool number()
    {
        const std::size_t start = i_;
        if (peek() == '-')
            ++i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                s_[i_] == '+' || s_[i_] == '-')) {
            ++i_;
        }
        return i_ > start;
    }

    bool literal(const std::string &word)
    {
        if (s_.compare(i_, word.size(), word) != 0)
            return false;
        i_ += word.size();
        return true;
    }

    char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

    void skipWs()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
                s_[i_] == '\r')) {
            ++i_;
        }
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

/** The raw text of the field @p key on the single-event line @p line
 *  ("" when absent; quotes stripped from string values). */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return "";
    auto start = pos + needle.size();
    if (start < line.size() && line[start] == '"') {
        const auto end = line.find('"', start + 1);
        return line.substr(start + 1, end - start - 1);
    }
    const auto end = line.find_first_of(",}", start);
    return line.substr(start, end - start);
}

bool
hasScalar(const telemetry::StatRegistry &registry, const std::string &path)
{
    for (const auto &probe : registry.scalars()) {
        if (probe.path == path)
            return true;
    }
    return false;
}

/** Run @p name, returning the stats; @p gpu is caller-provided so the
 *  test can inspect component getters and telemetry afterwards. */
KernelStats
launchOn(Gpu &gpu, const std::string &name)
{
    auto wl = makeWorkload(name, 0);
    const Kernel k = wl->buildKernel();
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    return stats;
}

TEST(StatRegistry, ExposesComponentGroupPaths)
{
    Gpu gpu(smallVtConfig());
    const telemetry::StatRegistry &reg = gpu.telemetryRegistry();

    for (const auto *path : {"sm0.instructions", "sm0.thread_instructions",
                             "sm0.ctas_completed", "sm0.issue.issued",
                             "sm0.issue.bubbles.mem", "sm1.issue.bubbles.idle",
                             "sm0.vt.swap_outs", "sm1.vt.swap_ins",
                             "sm0.l1d.hits", "sm1.l1d.misses",
                             "l2_0.hits", "l2_1.misses", "dram_0.row_hits",
                             "dram_1.bytes", "noc.req_flits"}) {
        EXPECT_TRUE(hasScalar(reg, path)) << path;
    }

    // Every KernelStats-feeding role is wired once per SM (or per
    // partition for the memory-side roles) at the aggregate level;
    // roles with a per-grid split add one probe per grid slot on top.
    std::map<telemetry::KernelStatRole, unsigned> role_counts;
    std::map<telemetry::KernelStatRole, unsigned> grid_counts;
    for (const auto &probe : reg.scalars()) {
        if (probe.grid < 0)
            ++role_counts[probe.role];
        else
            ++grid_counts[probe.role];
    }
    EXPECT_EQ(role_counts[telemetry::KernelStatRole::WarpInstructions],
              gpu.numSms());
    EXPECT_EQ(role_counts[telemetry::KernelStatRole::StallMem],
              gpu.numSms());
    EXPECT_EQ(role_counts[telemetry::KernelStatRole::SwapOuts],
              gpu.numSms());
    EXPECT_EQ(role_counts[telemetry::KernelStatRole::L2Hits], 2u);
    EXPECT_EQ(role_counts[telemetry::KernelStatRole::DramBytes], 2u);
    EXPECT_EQ(grid_counts[telemetry::KernelStatRole::WarpInstructions],
              gpu.numSms() * maxGrids);
    EXPECT_EQ(grid_counts[telemetry::KernelStatRole::StallMem], 0u);
    EXPECT_EQ(grid_counts[telemetry::KernelStatRole::L2Hits],
              2u * maxGrids);
}

TEST(StatRegistry, KernelStatsMatchComponentGetters)
{
    for (const auto &name : {"vecadd", "bfs"}) {
        // A fresh Gpu makes the launch delta equal the cumulative
        // counters the component getters expose.
        Gpu gpu(smallVtConfig());
        const KernelStats stats = launchOn(gpu, name);

        KernelStats byHand;
        for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
            SmCore &sm = gpu.sm(i);
            byHand.warpInstructions += sm.instructionsIssued();
            byHand.threadInstructions += sm.threadInstructions();
            byHand.ctasCompleted += sm.ctasCompleted();
            byHand.l1Hits += sm.ldst().l1().hits();
            byHand.l1Misses += sm.ldst().l1().misses();
            byHand.swapOuts += sm.vt().swapOuts();
            byHand.swapIns += sm.vt().swapIns();
            const StallBreakdown &st = sm.stallBreakdown();
            byHand.stalls.issued += st.issued;
            byHand.stalls.memStall += st.memStall;
            byHand.stalls.shortStall += st.shortStall;
            byHand.stalls.barrierStall += st.barrierStall;
            byHand.stalls.swapStall += st.swapStall;
            byHand.stalls.idle += st.idle;
        }
        for (std::uint32_t p = 0; p < 2; ++p) {
            MemoryPartition &part = gpu.partition(p);
            byHand.l2Hits += part.l2().hits();
            byHand.l2Misses += part.l2().misses();
            byHand.dramRowHits += part.dram().rowHits();
            byHand.dramRowMisses += part.dram().rowMisses();
            byHand.dramBytes += part.dram().bytesTransferred();
        }

        EXPECT_EQ(stats.warpInstructions, byHand.warpInstructions) << name;
        EXPECT_EQ(stats.threadInstructions, byHand.threadInstructions)
            << name;
        EXPECT_EQ(stats.ctasCompleted, byHand.ctasCompleted) << name;
        EXPECT_EQ(stats.l1Hits, byHand.l1Hits) << name;
        EXPECT_EQ(stats.l1Misses, byHand.l1Misses) << name;
        EXPECT_EQ(stats.l2Hits, byHand.l2Hits) << name;
        EXPECT_EQ(stats.l2Misses, byHand.l2Misses) << name;
        EXPECT_EQ(stats.dramRowHits, byHand.dramRowHits) << name;
        EXPECT_EQ(stats.dramRowMisses, byHand.dramRowMisses) << name;
        EXPECT_EQ(stats.dramBytes, byHand.dramBytes) << name;
        EXPECT_EQ(stats.swapOuts, byHand.swapOuts) << name;
        EXPECT_EQ(stats.swapIns, byHand.swapIns) << name;
        EXPECT_EQ(stats.stalls.issued, byHand.stalls.issued) << name;
        EXPECT_EQ(stats.stalls.memStall, byHand.stalls.memStall) << name;
        EXPECT_EQ(stats.stalls.shortStall, byHand.stalls.shortStall)
            << name;
        EXPECT_EQ(stats.stalls.barrierStall, byHand.stalls.barrierStall)
            << name;
        EXPECT_EQ(stats.stalls.swapStall, byHand.stalls.swapStall) << name;
        EXPECT_EQ(stats.stalls.idle, byHand.stalls.idle) << name;
    }
}

TEST(IntervalSampler, SeriesBitIdenticalAcrossFastForward)
{
    Cycle total_skipped = 0;
    for (const auto &name : {"vecadd", "bfs"}) {
        std::string series[2];
        KernelStats stats[2];
        for (int ff = 0; ff < 2; ++ff) {
            GpuConfig cfg = smallVtConfig();
            cfg.fastForwardEnabled = ff == 1;
            Gpu gpu(cfg);
            std::ostringstream os;
            gpu.enableIntervalSampler(500, os);
            stats[ff] = launchOn(gpu, name);
            series[ff] = os.str();
            if (ff == 1)
                total_skipped += gpu.fastForwardedCycles();
        }
        ASSERT_FALSE(series[0].empty()) << name;
        EXPECT_NE(series[0].find("\"sample\":0"), std::string::npos)
            << name;
        EXPECT_EQ(series[0], series[1]) << name;
        EXPECT_EQ(stats[0].cycles, stats[1].cycles) << name;
        // Every JSONL line is itself valid JSON.
        std::istringstream lines(series[0]);
        std::string line;
        while (std::getline(lines, line)) {
            JsonChecker checker(line);
            EXPECT_TRUE(checker.valid()) << name << ": " << line;
        }
    }
    // The comparison is vacuous unless fast-forward actually skipped
    // cycles while the sampler was attached.
    EXPECT_GT(total_skipped, 0u);
}

/** Expect @p text to be one valid trace whose duration events nest per
 *  (pid, tid) track, with per-track timestamps that never decrease. */
void
expectNestedTrace(const std::string &text, const std::string &context)
{
    SCOPED_TRACE(context);
    JsonChecker checker(text);
    EXPECT_TRUE(checker.valid());

    // One event per line: header line, then "<json>," lines, then "]}".
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<std::string>> open_spans;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        last_ts;
    unsigned begins = 0;
    unsigned ends = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        const std::string ph = field(line, "ph");
        if (ph.empty() || ph == "M")
            continue;
        const auto key = std::make_pair(
            std::stoull(field(line, "pid")),
            std::stoull(field(line, "tid")));
        const std::uint64_t ts = std::stoull(field(line, "ts"));
        auto it = last_ts.find(key);
        if (it != last_ts.end()) {
            EXPECT_LE(it->second, ts) << line;
        }
        last_ts[key] = ts;
        if (ph == "B") {
            ++begins;
            open_spans[key].push_back(field(line, "name"));
        } else if (ph == "E") {
            ++ends;
            ASSERT_FALSE(open_spans[key].empty())
                << "E without matching B: " << line;
            open_spans[key].pop_back();
        }
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
    for (const auto &[key, stack] : open_spans) {
        EXPECT_TRUE(stack.empty())
            << "unclosed span on pid " << key.first << " tid "
            << key.second;
    }
}

TEST(TraceJson, ParsesAndDurationEventsNest)
{
    std::ostringstream os;
    {
        Gpu gpu(smallVtConfig());
        gpu.enableTraceJson(os);
        launchOn(gpu, "bfs");
    } // Gpu destruction closes the writer (writes the JSON footer).
    expectNestedTrace(os.str(), "fresh launch");

    // A run restored mid-kernel starts with CTAs resident: their spans
    // open at the restore cycle, whether the writer is attached before
    // the restore (sequential) or after it (sharded).
    const std::string mid = test::uniqueTempPath("trace_mid");
    {
        Gpu gpu(smallVtConfig());
        gpu.setCheckpoint(mid, 500);
        ASSERT_GT(launchOn(gpu, "bfs").cycles, 1000u);
    }
    for (const unsigned threads : {1u, 4u}) {
        std::ostringstream restored;
        {
            auto wl = makeWorkload("bfs", 0);
            const Kernel k = wl->buildKernel();
            GlobalMemory scratch; // Teaches wl its addresses for verify().
            wl->prepare(scratch);
            Gpu gpu(smallVtConfig());
            gpu.setSimThreads(threads);
            LaunchParams lp;
            if (threads == 1) {
                gpu.enableTraceJson(restored);
                lp = gpu.restoreCheckpoint(mid);
            } else {
                lp = gpu.restoreCheckpoint(mid);
                gpu.enableTraceJson(restored);
            }
            gpu.launch(k, lp);
            EXPECT_TRUE(wl->verify(gpu.memory()));
        }
        expectNestedTrace(restored.str(), "restored, sim-threads " +
                                              std::to_string(threads));
    }
    std::remove(mid.c_str());
}

/** Launch @p name on @p cfg with a trace of @p categories; the trace. */
std::string
traceOf(const GpuConfig &cfg, const std::string &name,
        std::uint32_t categories)
{
    std::ostringstream os;
    {
        Gpu gpu(cfg);
        gpu.enableTraceJson(os, categories);
        launchOn(gpu, name);
    }
    return os.str();
}

/** The "cat" values of @p trace's events. */
std::set<std::string>
categoriesIn(const std::string &trace)
{
    std::set<std::string> cats;
    std::istringstream lines(trace);
    std::string line;
    while (std::getline(lines, line)) {
        const std::string cat = field(line, "cat");
        if (!cat.empty())
            cats.insert(cat);
    }
    return cats;
}

// ---------------------------------------------------------------------------
// Trace categories (run_benchmark --trace): the mask a writer records.
// ---------------------------------------------------------------------------

using telemetry::TraceCategory;
using telemetry::traceBit;

TEST(TraceTest, DisabledByDefault)
{
    // Per-instruction and per-access events are opt-in; the residency
    // timeline and its markers are on.
    std::ostringstream os;
    const telemetry::TraceJsonWriter writer(os);
    EXPECT_FALSE(writer.enabled(TraceCategory::Issue));
    EXPECT_FALSE(writer.enabled(TraceCategory::Mem));
    EXPECT_TRUE(writer.enabled(TraceCategory::Swap));
    EXPECT_TRUE(writer.enabled(TraceCategory::Cta));
    EXPECT_TRUE(writer.enabled(TraceCategory::Dram));
    EXPECT_TRUE(writer.enabled(TraceCategory::Barrier));
}

TEST(TraceTest, LogsOnlyEnabledFlags)
{
    // reduce emits every category when asked for all of them.
    const GpuConfig cfg = smallVtConfig();
    EXPECT_EQ(categoriesIn(traceOf(cfg, "reduce",
                                   telemetry::allTraceCategories)),
              (std::set<std::string>{"issue", "mem", "vt", "cta", "dram",
                                     "barrier"}));
    EXPECT_EQ(categoriesIn(traceOf(cfg, "reduce",
                                   traceBit(TraceCategory::Swap))),
              std::set<std::string>{"vt"});
    EXPECT_EQ(categoriesIn(traceOf(cfg, "reduce",
                                   traceBit(TraceCategory::Issue) |
                                       traceBit(TraceCategory::Barrier))),
              (std::set<std::string>{"issue", "barrier"}));
    EXPECT_EQ(categoriesIn(traceOf(cfg, "reduce", 0)),
              std::set<std::string>{});
}

TEST(TraceTest, CombinedFlags)
{
    std::ostringstream os;
    const telemetry::TraceJsonWriter writer(
        os, traceBit(TraceCategory::Issue) | traceBit(TraceCategory::Mem));
    EXPECT_TRUE(writer.enabled(TraceCategory::Issue));
    EXPECT_TRUE(writer.enabled(TraceCategory::Mem));
    EXPECT_FALSE(writer.enabled(TraceCategory::Dram));
}

TEST(TraceTest, ParseFlags)
{
    EXPECT_EQ(telemetry::parseTraceCategories("issue,swap"),
              traceBit(TraceCategory::Issue) | traceBit(TraceCategory::Swap));
    EXPECT_EQ(telemetry::parseTraceCategories("swap,cta,dram,barrier"),
              telemetry::defaultTraceCategories);
    EXPECT_EQ(telemetry::parseTraceCategories("all"),
              telemetry::allTraceCategories);
    EXPECT_EQ(telemetry::parseTraceCategories(""), 0u);
    EXPECT_THROW(telemetry::parseTraceCategories("bogus"), FatalError);
    EXPECT_THROW(telemetry::parseTraceCategories("swap,bogus"), FatalError);
}

TEST(TraceTest, SimulationEmitsSwapAndCtaEvents)
{
    GpuConfig cfg = smallConfig();
    cfg.numSms = 1;
    cfg.numMemPartitions = 1;
    cfg.vtEnabled = true;
    std::ostringstream os;
    {
        Gpu gpu(cfg);
        gpu.enableTraceJson(os, traceBit(TraceCategory::Swap) |
                                    traceBit(TraceCategory::Cta));
        const Kernel k = test::mul3Add7Kernel();
        const std::uint32_t n = 2048;
        const Addr in = gpu.memory().alloc(n * 4);
        const Addr out = gpu.memory().alloc(n * 4);
        LaunchParams lp;
        lp.cta = Dim3(64);
        lp.grid = Dim3(n / 64);
        lp.params = {std::uint32_t(in), std::uint32_t(out), n};
        gpu.launch(k, lp);
    }
    const std::string trace = os.str();
    EXPECT_NE(trace.find("\"name\":\"admit\",\"cat\":\"cta\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"finish\",\"cat\":\"cta\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"swapping-out\",\"cat\":\"vt\""),
              std::string::npos);
}

TEST(TraceTest, IssueTraceShowsDisassembly)
{
    std::ostringstream os;
    {
        Gpu gpu(smallConfig());
        gpu.enableTraceJson(os, traceBit(TraceCategory::Issue));
        const Kernel k = test::storeConstKernel();
        const Addr out = gpu.memory().alloc(64 * 4);
        LaunchParams lp;
        lp.cta = Dim3(64);
        lp.grid = Dim3(1);
        lp.params = {std::uint32_t(out), 64, 1};
        gpu.launch(k, lp);
    }
    const std::string trace = os.str();
    EXPECT_NE(trace.find("ldp r0, 0"), std::string::npos);
    EXPECT_NE(trace.find("exit"), std::string::npos);
    EXPECT_NE(trace.find("[32 lanes]"), std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"issue\""), std::string::npos);
}

TEST(TraceTest, TracingDoesNotChangeTiming)
{
    for (const char *name : {"bfs", "reduce"}) {
        const KernelStats plain = test::runOn(smallVtConfig(), name);
        std::ostringstream os;
        Gpu gpu(smallVtConfig());
        gpu.enableTraceJson(os, telemetry::allTraceCategories);
        const KernelStats traced = launchOn(gpu, name);
        EXPECT_EQ(test::fieldsOf(plain), test::fieldsOf(traced)) << name;
    }
}

TEST(SimProfiler, AttributesRunTimeWithoutPerturbingStats)
{
    KernelStats stats[2];
    double attributed = 0.0;
    for (int prof = 0; prof < 2; ++prof) {
        Gpu gpu(smallVtConfig());
        if (prof)
            gpu.enableProfiler();
        stats[prof] = launchOn(gpu, "bfs");
        if (!prof)
            continue;
        const telemetry::SimProfiler *p = gpu.profiler();
        ASSERT_NE(p, nullptr);
        // Fast-forward skips loop bodies, so executed <= simulated.
        EXPECT_GT(p->executedCycles(), 0u);
        EXPECT_LE(p->executedCycles(), stats[1].cycles);
        EXPECT_GT(p->sampledCycles(), 0u);
        EXPECT_LE(p->sampledCycles(), p->executedCycles());
        const auto report = p->report();
        ASSERT_FALSE(report.empty());
        bool sawSmTick = false;
        for (const auto &r : report) {
            EXPECT_GE(r.seconds, 0.0) << r.name;
            EXPECT_GT(r.calls, 0u) << r.name;
            sawSmTick |= std::string(r.name) == "sm_tick";
        }
        EXPECT_TRUE(sawSmTick);
        EXPECT_GT(p->runSeconds(), 0.0);
        attributed = p->attributedSeconds();
        EXPECT_GT(attributed, 0.0);
        // The raw buckets ride the standard registry machinery.
        bool found = false;
        for (const auto &probe : p->registry().scalars())
            found |= probe.path == "profiler.sm_tick_ns";
        EXPECT_TRUE(found);
    }
    // The profiler only reads the clock: identical simulation either
    // way. (Attribution *accuracy* is asserted statistically over the
    // whole fig3 suite by scripts/bench_profile.py, not per tiny run.)
    EXPECT_EQ(stats[0].cycles, stats[1].cycles);
    EXPECT_EQ(stats[0].warpInstructions, stats[1].warpInstructions);
    EXPECT_EQ(stats[0].l2Misses, stats[1].l2Misses);
    EXPECT_EQ(stats[0].dramBytes, stats[1].dramBytes);
    EXPECT_EQ(stats[0].swapOuts, stats[1].swapOuts);
    EXPECT_EQ(stats[0].stalls.memStall, stats[1].stalls.memStall);
}

TEST(TelemetryArgs, ParsesEverySwitchForm)
{
    const char *argv[] = {"bin", "--stats-json", "a.json",
                          "--stats-interval=500", "--trace-json=t.json",
                          "--profile-json=p.json", "--jobs", "4"};
    const bench::TelemetryOptions opts = bench::parseTelemetryArgs(
        8, const_cast<char **>(argv));
    EXPECT_EQ(opts.statsJsonPath, "a.json");
    EXPECT_EQ(opts.statsInterval, 500u);
    EXPECT_EQ(opts.traceJsonPath, "t.json");
    EXPECT_EQ(opts.profileJsonPath, "p.json");

    const char *argv2[] = {"bin", "--stats-interval", "64",
                           "--trace-json", "out.json"};
    const bench::TelemetryOptions opts2 = bench::parseTelemetryArgs(
        5, const_cast<char **>(argv2));
    EXPECT_TRUE(opts2.statsJsonPath.empty());
    EXPECT_EQ(opts2.statsInterval, 64u);
    EXPECT_EQ(opts2.traceJsonPath, "out.json");
}

/** A count flag's value is digits only, inside its range: anything
 *  else is a FatalError naming the flag, never a silent 0 or a wrapped
 *  negative. */
TEST(TelemetryArgs, RejectsMalformedCounts)
{
    auto parse = [](std::vector<const char *> args) {
        args.insert(args.begin(), "bin");
        return bench::parseTelemetryArgs(int(args.size()),
                                         const_cast<char **>(args.data()));
    };
    auto expectRejected = [&](std::vector<const char *> args,
                              const std::string &flag) {
        try {
            parse(args);
            ADD_FAILURE() << flag << " accepted a malformed value";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
                << e.what();
        }
    };
    expectRejected({"--stats-interval", "banana"}, "--stats-interval");
    expectRejected({"--stats-interval=x1"}, "--stats-interval");
    expectRejected({"--stats-interval", "-5"}, "--stats-interval");
    expectRejected({"--checkpoint-every", "banana"}, "--checkpoint-every");
    expectRejected({"--checkpoint-every=-5"}, "--checkpoint-every");
    expectRejected({"--sim-threads", "0"}, "--sim-threads");
    expectRejected({"--sim-threads=-5"}, "--sim-threads");
    // 0 still means "off" where the flag allows it.
    EXPECT_EQ(parse({"--stats-interval", "0"}).statsInterval, 0u);
    EXPECT_EQ(parse({"--checkpoint-every=0"}).checkpointEvery, 0u);

    EXPECT_EQ(bench::parseCount<std::uint32_t>("4294967295", "--sms", 1),
              4294967295u);
    for (const char *bad : {"", " 5", "+5", "-5", "5x", "0", "4294967296",
                            "99999999999999999999"}) {
        EXPECT_THROW(bench::parseCount<std::uint32_t>(bad, "--sms", 1),
                     FatalError)
            << "'" << bad << "'";
    }
}

TEST(TelemetryArgs, IndexedPathInsertsRunIndex)
{
    EXPECT_EQ(bench::indexedPath("out/trace.json", 0), "out/trace.json");
    EXPECT_EQ(bench::indexedPath("out/trace.json", 3), "out/trace.3.json");
    EXPECT_EQ(bench::indexedPath("trace", 2), "trace.2");
    EXPECT_EQ(bench::indexedPath("a.b/trace", 1), "a.b/trace.1");
}

} // namespace
} // namespace vtsim
