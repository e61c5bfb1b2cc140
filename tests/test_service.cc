/**
 * @file
 * The vtsimd job-service subsystem end to end: the JSON/NDJSON wire
 * protocol survives malformed input (fuzz-style), the daemon survives
 * abusive clients, and — the load-bearing invariant — a job that is
 * preempted, parked to disk and resumed, or crashed and retried from
 * its last checkpoint, finishes with KernelStats bit-identical to the
 * uninterrupted run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpu/gpu.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

using service::Client;
using service::Daemon;
using service::JobService;
using service::JobSnapshot;
using service::JobSpec;
using service::JobState;
using service::Json;
using service::JsonError;
using service::Priority;
using service::ProtocolError;
using service::ServiceConfig;

/** Every field of KernelStats, bit for bit. */
void
expectIdenticalStats(const KernelStats &a, const KernelStats &b,
                     const std::string &context)
{
    EXPECT_EQ(a.cycles, b.cycles) << context;
    EXPECT_EQ(a.warpInstructions, b.warpInstructions) << context;
    EXPECT_EQ(a.threadInstructions, b.threadInstructions) << context;
    EXPECT_EQ(a.ctasCompleted, b.ctasCompleted) << context;
    EXPECT_EQ(a.ipc, b.ipc) << context;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << context;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << context;
    EXPECT_EQ(a.l2Hits, b.l2Hits) << context;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << context;
    EXPECT_EQ(a.dramRowHits, b.dramRowHits) << context;
    EXPECT_EQ(a.dramRowMisses, b.dramRowMisses) << context;
    EXPECT_EQ(a.dramBytes, b.dramBytes) << context;
    EXPECT_EQ(a.swapOuts, b.swapOuts) << context;
    EXPECT_EQ(a.swapIns, b.swapIns) << context;
    EXPECT_EQ(a.stalls.issued, b.stalls.issued) << context;
    EXPECT_EQ(a.stalls.memStall, b.stalls.memStall) << context;
    EXPECT_EQ(a.stalls.shortStall, b.stalls.shortStall) << context;
    EXPECT_EQ(a.stalls.barrierStall, b.stalls.barrierStall) << context;
    EXPECT_EQ(a.stalls.swapStall, b.stalls.swapStall) << context;
    EXPECT_EQ(a.stalls.idle, b.stalls.idle) << context;
}

struct Baseline
{
    KernelStats stats;
    std::string series;
};

/** The oracle: the same workload, uninterrupted, on a fresh Gpu with
 *  the job service's default config. */
Baseline
runUninterrupted(const std::string &name, std::uint32_t scale,
                 Cycle interval = 0)
{
    auto wl = makeWorkload(name, scale);
    const Kernel kernel = wl->buildKernel();
    Gpu gpu{GpuConfig::fermiLike()};
    std::ostringstream os;
    if (interval > 0)
        gpu.enableIntervalSampler(interval, os);
    const LaunchParams lp = wl->prepare(gpu.memory());
    Baseline baseline;
    baseline.stats = gpu.launch(kernel, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    baseline.series = os.str();
    return baseline;
}

/** Poll until @p id has left the queue (running or already terminal). */
void
spinUntilStarted(JobService &service, service::JobId id)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        const JobSnapshot snap = service.query(id);
        if (snap.state != JobState::Queued)
            return;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "job " << id << " never started";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

std::string
tempSpool(const std::string &tag)
{
    return test::uniqueTempPath("vtsim-spool-" + tag);
}

// --------------------------------------------------------------------
// JSON layer
// --------------------------------------------------------------------

TEST(ServiceJson, MalformedInputsThrow)
{
    const char *cases[] = {
        "",
        "{",
        "}",
        "nope",
        "[1, 2",
        "{\"a\": }",
        "{\"a\": 1,}",
        "{\"a\" 1}",
        "\"unterminated",
        "01",
        "+1",
        "1e",
        "tru",
        "{\"a\": 1} trailing",
        "\"bad escape \\q\"",
        "\"bad unicode \\u12\"",
    };
    for (const char *text : cases)
        EXPECT_THROW(Json::parse(text), JsonError) << "'" << text << "'";

    // Recursion-depth cap: deep nesting must error, not overflow the
    // stack.
    std::string deep(100, '[');
    EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(ServiceJson, RoundTrip)
{
    const std::string text =
        "{\"a\":[1,2.5,\"x\",true,null],\"b\":{\"c\":-7}}";
    EXPECT_EQ(Json::parse(text).dump(), text);
    EXPECT_EQ(Json::parse("  42 ").asInt(), 42);
    EXPECT_EQ(Json::parse("\"\\u0041\\n\"").asString(), "A\n");
}

TEST(ServiceProtocol, RejectsBadRequests)
{
    EXPECT_THROW(service::parseRequest("{\"op\":\"nope\"}"),
                 ProtocolError);
    EXPECT_THROW(service::parseRequest("{\"workload\":\"vecadd\"}"),
                 ProtocolError);
    EXPECT_THROW(service::parseRequest("{\"op\":\"submit\"}"),
                 ProtocolError);
    EXPECT_THROW(service::parseRequest(
                     "{\"op\":\"submit\",\"workload\":\"vecadd\","
                     "\"scale\":-1}"),
                 ProtocolError);
    EXPECT_THROW(service::parseRequest(
                     "{\"op\":\"submit\",\"workload\":\"vecadd\","
                     "\"config\":{\"bogus\":1}}"),
                 ProtocolError);
    EXPECT_THROW(service::parseRequest("{\"op\":\"wait\"}"),
                 ProtocolError);
    EXPECT_THROW(service::parseRequest(
                     "{\"op\":\"submit\",\"workload\":\"vecadd\","
                     "\"sim_threads\":-2}"),
                 ProtocolError);
    EXPECT_THROW(service::parseRequest(
                     "{\"op\":\"submit\",\"workload\":\"vecadd\","
                     "\"sim_threads\":\"four\"}"),
                 ProtocolError);
    EXPECT_THROW(service::parseRequest("[]"), ProtocolError);
    // Checkpoint migration is not part of the protocol: these op
    // names must draw the plain unknown-op error.
    for (const char *op :
         {"yank", "ckpt_read", "release", "ckpt_begin", "ckpt_chunk"}) {
        try {
            service::parseRequest(std::string("{\"op\":\"") + op +
                                  "\",\"job\":1}");
            ADD_FAILURE() << op << " was accepted";
        } catch (const ProtocolError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown op"),
                      std::string::npos)
                << op << ": " << e.what();
        }
    }
}

TEST(ServiceProtocol, ParsesSimThreads)
{
    const auto req = service::parseRequest(
        "{\"op\":\"submit\",\"workload\":\"vecadd\",\"sim_threads\":4}");
    EXPECT_EQ(req.spec.simThreads, 4u);
    // Absent means unset (sequential).
    const auto plain = service::parseRequest(
        "{\"op\":\"submit\",\"workload\":\"vecadd\"}");
    EXPECT_EQ(plain.spec.simThreads, 0u);
}

TEST(ServiceProtocol, ParsesMultiKernelSubmit)
{
    const auto req = service::parseRequest(
        "{\"op\":\"submit\",\"kernels\":[\"vecadd\",\"bfs\"],"
        "\"share_policy\":\"spatial\"}");
    ASSERT_EQ(req.spec.kernels.size(), 2u);
    EXPECT_EQ(req.spec.kernels[0], "vecadd");
    EXPECT_EQ(req.spec.kernels[1], "bfs");
    EXPECT_EQ(req.spec.workload, "vecadd"); // Mirrors kernels[0].
    EXPECT_EQ(req.spec.sharePolicy, SharePolicy::Spatial);

    // Default policy, classic single-kernel spec stays untouched.
    const auto plain = service::parseRequest(
        "{\"op\":\"submit\",\"workload\":\"vecadd\"}");
    EXPECT_TRUE(plain.spec.kernels.empty());
    EXPECT_EQ(plain.spec.sharePolicy, SharePolicy::VtFill);

    const char *bad[] = {
        // workload and kernels are exclusive.
        "{\"op\":\"submit\",\"workload\":\"vecadd\","
        "\"kernels\":[\"bfs\"]}",
        // kernels must be a non-empty string array.
        "{\"op\":\"submit\",\"kernels\":[]}",
        "{\"op\":\"submit\",\"kernels\":[1,2]}",
        // Unknown policy names are a protocol error.
        "{\"op\":\"submit\",\"kernels\":[\"vecadd\",\"bfs\"],"
        "\"share_policy\":\"round-robin\"}",
    };
    for (const char *line : bad)
        EXPECT_THROW(service::parseRequest(line), ProtocolError) << line;
}

TEST(ServiceProtocol, KernelStatsRoundTrip)
{
    const Baseline base = runUninterrupted("vecadd", 0);
    const Json json = service::kernelStatsToJson(base.stats);
    const KernelStats back =
        service::kernelStatsFromJson(Json::parse(json.dump()));
    expectIdenticalStats(base.stats, back, "stats json round trip");
}

// --------------------------------------------------------------------
// JobService scheduling semantics (in-process)
// --------------------------------------------------------------------

TEST(JobService, SubmitRejectsUnknownWorkload)
{
    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempSpool("unknown");
    JobService service(config);

    JobSpec bad;
    bad.workload = "no-such-benchmark";
    const auto outcome = service.submit(bad, Priority::Normal);
    EXPECT_FALSE(outcome.ok());
    EXPECT_FALSE(outcome.error.empty());

    // The rejection must not poison the service.
    JobSpec good;
    good.workload = "vecadd";
    good.scale = 0;
    const auto accepted = service.submit(good, Priority::Normal);
    ASSERT_TRUE(accepted.ok());
    EXPECT_EQ(service.wait(accepted.id).state, JobState::Done);
}

TEST(JobService, ShardedJobMatchesSequentialAndRespectsLimit)
{
    const Baseline base = runUninterrupted("vecadd", 1, 500);

    ServiceConfig config;
    config.workers = 1;
    config.maxSimThreads = 2;
    config.spoolDir = tempSpool("sharded");
    JobService service(config);

    // Beyond the daemon-side bound: rejected at submit, not clamped.
    JobSpec over;
    over.workload = "vecadd";
    over.simThreads = 3;
    const auto rejected = service.submit(over, Priority::Normal);
    EXPECT_FALSE(rejected.ok());
    EXPECT_NE(rejected.error.find("sim_threads"), std::string::npos)
        << rejected.error;

    // Within the bound: runs sharded, and nobody can tell from the
    // statistics or the interval series.
    JobSpec sharded;
    sharded.workload = "vecadd";
    sharded.scale = 1;
    sharded.statsInterval = 500;
    sharded.simThreads = 2;
    const auto accepted = service.submit(sharded, Priority::Normal);
    ASSERT_TRUE(accepted.ok());
    const JobSnapshot snap = service.wait(accepted.id);
    ASSERT_EQ(snap.state, JobState::Done);
    EXPECT_TRUE(snap.verified);
    EXPECT_EQ(snap.simThreads, 2u);
    expectIdenticalStats(base.stats, snap.stats, "sharded job");
    EXPECT_EQ(base.series, snap.intervalSeries);
}

TEST(JobService, QueueFullRejectionAndBackpressure)
{
    ServiceConfig config;
    config.workers = 1;
    config.queueLimit = 1;
    config.preemptEvery = 0; // Non-preemptible: the worker stays busy.
    config.spoolDir = tempSpool("full");
    JobService service(config);

    JobSpec longJob;
    longJob.workload = "needle";
    longJob.scale = 1;
    const auto a = service.submit(longJob, Priority::Normal);
    ASSERT_TRUE(a.ok());
    spinUntilStarted(service, a.id);

    JobSpec tiny;
    tiny.workload = "vecadd";
    tiny.scale = 0;
    const auto b = service.submit(tiny, Priority::Normal);
    ASSERT_TRUE(b.ok()); // Fills the queue (depth 1).
    const auto c = service.submit(tiny, Priority::Normal);
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(c.rejected, "queue_full");

    EXPECT_EQ(service.wait(a.id).state, JobState::Done);
    EXPECT_EQ(service.wait(b.id).state, JobState::Done);
    EXPECT_THROW(service.wait(9999), ProtocolError);
}

TEST(JobService, PreemptedJobResumesBitIdentically)
{
    const Baseline longBase = runUninterrupted("needle", 1);
    const Baseline tinyBase = runUninterrupted("vecadd", 0);

    ServiceConfig config;
    config.workers = 1;
    config.preemptEvery = 500; // Frequent preemption points.
    config.spoolDir = tempSpool("preempt");
    JobService service(config);

    JobSpec longJob;
    longJob.workload = "needle";
    longJob.scale = 1;
    const auto low = service.submit(longJob, Priority::Low);
    ASSERT_TRUE(low.ok());
    spinUntilStarted(service, low.id);

    JobSpec tiny;
    tiny.workload = "vecadd";
    tiny.scale = 0;
    const auto high = service.submit(tiny, Priority::High);
    ASSERT_TRUE(high.ok());

    const JobSnapshot highSnap = service.wait(high.id);
    ASSERT_EQ(highSnap.state, JobState::Done);
    EXPECT_TRUE(highSnap.verified);
    expectIdenticalStats(tinyBase.stats, highSnap.stats,
                         "high-priority job");

    const JobSnapshot lowSnap = service.wait(low.id);
    ASSERT_EQ(lowSnap.state, JobState::Done);
    EXPECT_TRUE(lowSnap.verified);
    // The whole point: it was parked to disk mid-kernel and resumed,
    // and nobody can tell from the statistics.
    EXPECT_GE(lowSnap.preemptions, 1u);
    expectIdenticalStats(longBase.stats, lowSnap.stats,
                         "preempted+resumed job");
}

/** Direct launchConcurrent oracle with the service's default config. */
KernelStats
coRunUninterrupted(const std::vector<std::string> &names,
                   SharePolicy policy, std::uint32_t scale,
                   std::vector<GridStats> &grids)
{
    Gpu gpu{GpuConfig::fermiLike()};
    std::vector<std::unique_ptr<Workload>> wls;
    std::vector<Kernel> kernels;
    for (const auto &name : names) {
        wls.push_back(makeWorkload(name, scale));
        kernels.push_back(wls.back()->buildKernel());
    }
    std::vector<GridLaunch> launches;
    for (std::size_t g = 0; g < wls.size(); ++g) {
        GridLaunch gl;
        gl.kernel = &kernels[g];
        gl.params = wls[g]->prepare(gpu.memory());
        gl.priority = std::uint32_t(g);
        launches.push_back(std::move(gl));
    }
    const KernelStats stats = gpu.launchConcurrent(launches, policy);
    for (std::size_t g = 0; g < wls.size(); ++g)
        EXPECT_TRUE(wls[g]->verify(gpu.memory())) << names[g];
    grids = gpu.gridStats();
    return stats;
}

TEST(JobService, MultiKernelJobReportsPerGridStats)
{
    std::vector<GridStats> base_grids;
    const KernelStats base = coRunUninterrupted(
        {"vecadd", "bfs"}, SharePolicy::VtFill, 0, base_grids);

    ServiceConfig config;
    config.workers = 1;
    config.preemptEvery = 0; // Uninterrupted oracle comparison.
    config.spoolDir = tempSpool("multikernel");
    JobService service(config);

    JobSpec spec;
    spec.kernels = {"vecadd", "bfs"};
    spec.workload = spec.kernels.front();
    spec.scale = 0;
    spec.sharePolicy = SharePolicy::VtFill;
    const auto accepted = service.submit(spec, Priority::Normal);
    ASSERT_TRUE(accepted.ok()) << accepted.error;
    const JobSnapshot snap = service.wait(accepted.id);
    ASSERT_EQ(snap.state, JobState::Done);
    EXPECT_TRUE(snap.verified);
    expectIdenticalStats(base, snap.stats, "multi-kernel job");
    ASSERT_EQ(snap.grids.size(), 2u);
    for (std::size_t g = 0; g < snap.grids.size(); ++g) {
        EXPECT_EQ(snap.grids[g].kernelName, base_grids[g].kernelName);
        expectIdenticalStats(base_grids[g].stats, snap.grids[g].stats,
                             "grid " + std::to_string(g));
    }
}

TEST(JobService, MultiKernelPreemptedJobResumesBitIdentically)
{
    std::vector<GridStats> base_grids;
    const KernelStats base = coRunUninterrupted(
        {"bfs", "stencil"}, SharePolicy::VtFill, 0, base_grids);

    ServiceConfig config;
    config.workers = 1;
    config.preemptEvery = 500;
    config.spoolDir = tempSpool("multipreempt");
    JobService service(config);

    JobSpec longJob;
    longJob.kernels = {"bfs", "stencil"};
    longJob.workload = longJob.kernels.front();
    longJob.scale = 0;
    const auto low = service.submit(longJob, Priority::Low);
    ASSERT_TRUE(low.ok()) << low.error;
    spinUntilStarted(service, low.id);

    JobSpec tiny;
    tiny.workload = "vecadd";
    tiny.scale = 0;
    const auto high = service.submit(tiny, Priority::High);
    ASSERT_TRUE(high.ok());
    ASSERT_EQ(service.wait(high.id).state, JobState::Done);

    const JobSnapshot snap = service.wait(low.id);
    ASSERT_EQ(snap.state, JobState::Done);
    EXPECT_TRUE(snap.verified);
    expectIdenticalStats(base, snap.stats, "parked co-run");
    ASSERT_EQ(snap.grids.size(), 2u);
    for (std::size_t g = 0; g < snap.grids.size(); ++g) {
        expectIdenticalStats(base_grids[g].stats, snap.grids[g].stats,
                             "parked co-run grid " + std::to_string(g));
    }
}

TEST(JobService, MultiKernelSubmitValidation)
{
    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempSpool("multivalidate");
    JobService service(config);

    // Beyond the grid limit.
    JobSpec over;
    over.kernels.assign(maxGrids + 1, "vecadd");
    over.workload = "vecadd";
    const auto rejected = service.submit(over, Priority::Normal);
    EXPECT_FALSE(rejected.ok());
    EXPECT_NE(rejected.error.find("kernels"), std::string::npos)
        << rejected.error;

    // Recording does not compose with co-runs (mode matrix).
    JobSpec rec;
    rec.kernels = {"vecadd", "bfs"};
    rec.workload = "vecadd";
    rec.recordTrace = tempSpool("multivalidate") + "-trace.bin";
    const auto rec_rejected = service.submit(rec, Priority::Normal);
    EXPECT_FALSE(rec_rejected.ok());
    EXPECT_NE(rec_rejected.error.find("concurrent"), std::string::npos)
        << rec_rejected.error;

    // Preempt policy without the VT machine (mode matrix).
    JobSpec pre;
    pre.kernels = {"vecadd", "bfs"};
    pre.workload = "vecadd";
    pre.sharePolicy = SharePolicy::Preempt;
    const auto pre_rejected = service.submit(pre, Priority::Normal);
    EXPECT_FALSE(pre_rejected.ok());
    EXPECT_NE(pre_rejected.error.find("vtEnabled"), std::string::npos)
        << pre_rejected.error;

    // An unknown co-runner name is caught at admission.
    JobSpec bad;
    bad.kernels = {"vecadd", "no-such-benchmark"};
    bad.workload = "vecadd";
    const auto bad_rejected = service.submit(bad, Priority::Normal);
    EXPECT_FALSE(bad_rejected.ok());

    // None of the rejections poisoned the service.
    JobSpec good;
    good.workload = "vecadd";
    good.scale = 0;
    const auto accepted = service.submit(good, Priority::Normal);
    ASSERT_TRUE(accepted.ok());
    EXPECT_EQ(service.wait(accepted.id).state, JobState::Done);
}

TEST(JobService, CrashedJobRetriesFromCheckpoint)
{
    constexpr Cycle kInterval = 1000;
    const Baseline base = runUninterrupted("needle", 0, kInterval);

    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempSpool("retry-ckpt");
    JobService service(config);

    JobSpec spec;
    spec.workload = "needle"; // 11k+ cycles: crosses the boundary.
    spec.scale = 0;
    spec.checkpointEvery = 2000;
    spec.statsInterval = kInterval;
    spec.injectFail = 1; // Attempt 1 parks a checkpoint, then dies.
    const auto job = service.submit(spec, Priority::Normal);
    ASSERT_TRUE(job.ok());

    const JobSnapshot snap = service.wait(job.id);
    ASSERT_EQ(snap.state, JobState::Done);
    EXPECT_TRUE(snap.verified);
    EXPECT_EQ(snap.retries, 1u);
    expectIdenticalStats(base.stats, snap.stats,
                         "retried-from-checkpoint job");
    // The interval series is stitched from the pre-crash slice plus
    // the resumed slice, and must equal the uninterrupted series.
    EXPECT_EQ(base.series, snap.intervalSeries);
}

TEST(JobService, CrashedJobWithoutCheckpointRetriesFromScratch)
{
    const Baseline base = runUninterrupted("vecadd", 0);

    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempSpool("retry-scratch");
    JobService service(config);

    JobSpec spec;
    spec.workload = "vecadd";
    spec.scale = 0;
    // Cadence beyond the kernel length: the launch completes before
    // any checkpoint boundary, so the injected failure leaves nothing
    // parked and the retry reruns from scratch.
    spec.checkpointEvery = 1'000'000'000;
    spec.injectFail = 1;
    const auto job = service.submit(spec, Priority::Normal);
    ASSERT_TRUE(job.ok());

    const JobSnapshot snap = service.wait(job.id);
    ASSERT_EQ(snap.state, JobState::Done);
    EXPECT_EQ(snap.retries, 1u);
    expectIdenticalStats(base.stats, snap.stats,
                         "retried-from-scratch job");
}

TEST(JobService, SecondCrashIsTerminal)
{
    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempSpool("exhausted");
    JobService service(config);

    JobSpec spec;
    spec.workload = "vecadd";
    spec.scale = 0;
    spec.checkpointEvery = 100;
    spec.injectFail = 2; // First attempt and its one retry both die.
    const auto job = service.submit(spec, Priority::Normal);
    ASSERT_TRUE(job.ok());

    const JobSnapshot snap = service.wait(job.id);
    EXPECT_EQ(snap.state, JobState::Failed);
    EXPECT_EQ(snap.retries, 1u);
    EXPECT_NE(snap.failureReason.find("injected"), std::string::npos)
        << snap.failureReason;
}

TEST(JobService, CancelQueuedButNotRunning)
{
    ServiceConfig config;
    config.workers = 1;
    config.preemptEvery = 0;
    config.spoolDir = tempSpool("cancel");
    JobService service(config);

    JobSpec longJob;
    longJob.workload = "needle";
    longJob.scale = 1;
    const auto a = service.submit(longJob, Priority::Normal);
    ASSERT_TRUE(a.ok());
    spinUntilStarted(service, a.id);

    JobSpec tiny;
    tiny.workload = "vecadd";
    tiny.scale = 0;
    const auto b = service.submit(tiny, Priority::Normal);
    ASSERT_TRUE(b.ok());

    std::string error;
    EXPECT_TRUE(service.cancel(b.id, error)) << error;
    EXPECT_EQ(service.wait(b.id).state, JobState::Cancelled);
    EXPECT_FALSE(service.cancel(b.id, error)); // Already terminal.
    EXPECT_FALSE(service.cancel(a.id, error)); // Running.
    EXPECT_FALSE(service.cancel(12345, error)); // Unknown.

    EXPECT_EQ(service.wait(a.id).state, JobState::Done);
}

TEST(JobService, TelemetryAndCompletedRuns)
{
    ServiceConfig config;
    config.workers = 2;
    config.spoolDir = tempSpool("telemetry");
    JobService service(config);

    JobSpec tiny;
    tiny.workload = "vecadd";
    tiny.scale = 0;
    const auto a = service.submit(tiny, Priority::Normal);
    tiny.workload = "reduce";
    const auto b = service.submit(tiny, Priority::High);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    service.wait(a.id);
    service.wait(b.id);

    const Json status = service.status();
    EXPECT_TRUE(status.find("ok")->asBool());
    EXPECT_EQ(status.find("workers")->asInt(), 2);
    EXPECT_EQ(status.find("jobs")->find("submitted")->asInt(), 2);
    EXPECT_EQ(status.find("jobs")->find("completed")->asInt(), 2);
    EXPECT_EQ(status.find("job_list")->asArray().size(), 2u);
    EXPECT_GE(status.find("busy_seconds")->asDouble(), 0.0);

    // The stats-JSON section is the same snapshot minus the reply
    // framing.
    const Json section = service.statsJsonSection();
    EXPECT_EQ(section.find("ok"), nullptr);
    EXPECT_EQ(section.find("jobs")->find("completed")->asInt(), 2);

    // Completed runs come back in job-id order for the stats JSON.
    const auto runs = service.completedRuns();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].workload, "vecadd");
    EXPECT_EQ(runs[1].workload, "reduce");
    EXPECT_TRUE(runs[0].verified);
    EXPECT_TRUE(runs[1].verified);

    // The service StatGroup is registered with the registry under
    // dotted paths.
    const auto &scalars = service.telemetryRegistry().scalars();
    bool found = false;
    for (const auto &probe : scalars)
        found |= probe.path == "service.jobs_completed";
    EXPECT_TRUE(found);
}

TEST(JobService, MetricsTextExportsServiceRegistry)
{
    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempSpool("metrics");
    JobService service(config);

    JobSpec tiny;
    tiny.workload = "vecadd";
    tiny.scale = 0;
    const auto a = service.submit(tiny, Priority::Normal);
    const auto b = service.submit(tiny, Priority::Normal);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    service.wait(a.id);
    service.wait(b.id);

    const std::string text = service.metricsText();
    // Counters get the Prometheus _total suffix and a typed family.
    EXPECT_NE(text.find("# TYPE vtsim_service_jobs_completed_total "
                        "counter\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vtsim_service_jobs_completed_total 2\n"),
              std::string::npos)
        << text;
    // Both completed jobs were sampled by the latency distributions
    // and their histograms (cumulative buckets end at +Inf == count).
    EXPECT_NE(text.find("vtsim_service_queue_wait_seconds_count 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("vtsim_service_run_seconds_count 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("vtsim_service_run_seconds_hist_bucket{le=\"+Inf\"} 2"),
        std::string::npos)
        << text;
    // Nothing was preempted: the distribution exists but is empty.
    EXPECT_NE(
        text.find("vtsim_service_preempt_to_resume_seconds_count 0\n"),
        std::string::npos)
        << text;
}

// --------------------------------------------------------------------
// Daemon wire protocol (Unix-domain socket)
// --------------------------------------------------------------------

class DaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        config_.workers = 1;
        config_.queueLimit = 8;
        config_.spoolDir = tempSpool("daemon");
        service_ = std::make_unique<JobService>(config_);
        socket_ = test::uniqueTempPath("vtsimd-test") + ".sock";
        daemon_ = std::make_unique<Daemon>(*service_, socket_);
        daemon_->start();
        serveThread_ = std::thread([this] { daemon_->serve(); });
    }

    void
    TearDown() override
    {
        daemon_->requestStop();
        serveThread_.join();
        daemon_.reset();
        service_->shutdown();
        service_.reset();
    }

    /** One request on a fresh connection; expects a reply line. */
    Json
    roundTrip(const std::string &line)
    {
        Client client(socket_);
        const std::string reply = client.requestRaw(line);
        EXPECT_FALSE(reply.empty()) << "no reply to: " << line;
        return Json::parse(reply);
    }

    ServiceConfig config_;
    std::unique_ptr<JobService> service_;
    std::unique_ptr<Daemon> daemon_;
    std::string socket_;
    std::thread serveThread_;
};

TEST_F(DaemonTest, FuzzedRequestsNeverKillTheDaemon)
{
    const char *garbage[] = {
        "{",
        "not json at all",
        "[]",
        "42",
        "{\"op\":42}",
        "{\"op\":\"frobnicate\"}",
        "{\"op\":\"submit\"}",
        "{\"op\":\"submit\",\"workload\":17}",
        "{\"op\":\"submit\",\"workload\":\"no-such-benchmark\"}",
        "{\"op\":\"submit\",\"workload\":\"vecadd\",\"scale\":9999}",
        "{\"op\":\"submit\",\"workload\":\"vecadd\","
        "\"config\":{\"root_password\":\"hunter2\"}}",
        "{\"op\":\"submit\",\"workload\":\"vecadd\","
        "\"priority\":\"urgent\"}",
        "{\"op\":\"wait\"}",
        "{\"op\":\"wait\",\"job\":31337}",
        "{\"op\":\"cancel\",\"job\":-1}",
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    };
    for (const char *line : garbage) {
        const Json reply = roundTrip(line);
        ASSERT_TRUE(reply.isObject()) << line;
        EXPECT_FALSE(reply.find("ok")->asBool()) << line;
        EXPECT_NE(reply.find("error"), nullptr) << line;
    }
    // After all of that, the daemon still serves.
    EXPECT_TRUE(roundTrip("{\"op\":\"ping\"}").find("ok")->asBool());
}

TEST_F(DaemonTest, OversizedRequestRejectedWithoutParsing)
{
    std::string huge = "{\"op\":\"ping\",\"pad\":\"";
    huge.append(Daemon::kMaxLineBytes + 1024, 'x');
    huge += "\"}";
    Client client(socket_);
    const std::string reply = client.requestRaw(huge);
    ASSERT_FALSE(reply.empty());
    const Json parsed = Json::parse(reply);
    EXPECT_FALSE(parsed.find("ok")->asBool());
    EXPECT_NE(parsed.find("error")->asString().find("64 KiB"),
              std::string::npos);

    EXPECT_TRUE(roundTrip("{\"op\":\"ping\"}").find("ok")->asBool());
}

TEST_F(DaemonTest, MidRequestDisconnectIsHarmless)
{
    {
        Client client(socket_);
        client.sendPartialAndClose("{\"op\":\"submit\",\"work");
    }
    {
        Client client(socket_);
        client.sendPartialAndClose("");
    }
    EXPECT_TRUE(roundTrip("{\"op\":\"ping\"}").find("ok")->asBool());
}

TEST_F(DaemonTest, SubmitWaitQueryOverTheWire)
{
    const Baseline base = runUninterrupted("vecadd", 0);

    Client client(socket_);
    const Json submitted = Json::parse(client.requestRaw(
        "{\"op\":\"submit\",\"workload\":\"vecadd\",\"scale\":0,"
        "\"priority\":\"high\"}"));
    ASSERT_TRUE(submitted.find("ok")->asBool());
    const std::int64_t id = submitted.find("job")->asInt();

    Json::Object wait;
    wait["op"] = Json("wait");
    wait["job"] = Json(id);
    const Json reply = client.request(Json(std::move(wait)));
    ASSERT_TRUE(reply.find("ok")->asBool());
    EXPECT_EQ(reply.find("state")->asString(), "done");
    EXPECT_TRUE(reply.find("verified")->asBool());
    expectIdenticalStats(
        base.stats,
        service::kernelStatsFromJson(*reply.find("stats")),
        "stats over the wire");

    const Json status = roundTrip("{\"op\":\"status\"}");
    EXPECT_TRUE(status.find("ok")->asBool());
    EXPECT_GE(status.find("jobs")->find("completed")->asInt(), 1);
}

TEST_F(DaemonTest, MetricsOpOverTheWire)
{
    // The multi-line Prometheus text rides inside the one-line NDJSON
    // reply as a string body.
    const Json reply = roundTrip("{\"op\":\"metrics\"}");
    ASSERT_TRUE(reply.find("ok")->asBool());
    EXPECT_EQ(reply.find("op")->asString(), "metrics");
    const Json *body = reply.find("body");
    ASSERT_NE(body, nullptr);
    ASSERT_TRUE(body->isString());
    const std::string &text = body->asString();
    EXPECT_NE(text.find("# TYPE vtsim_service_jobs_submitted_total "
                        "counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("vtsim_service_queue_depth 0\n"),
              std::string::npos);

    // The scrape reflects work as it happens.
    const Json submitted = roundTrip(
        "{\"op\":\"submit\",\"workload\":\"vecadd\",\"scale\":0}");
    ASSERT_TRUE(submitted.find("ok")->asBool());
    Json::Object wait;
    wait["op"] = Json("wait");
    wait["job"] = Json(submitted.find("job")->asInt());
    roundTrip(Json(std::move(wait)).dump());
    const Json after = roundTrip("{\"op\":\"metrics\"}");
    EXPECT_NE(after.find("body")->asString().find(
                  "vtsim_service_jobs_completed_total 1\n"),
              std::string::npos);
}

} // namespace
} // namespace vtsim
