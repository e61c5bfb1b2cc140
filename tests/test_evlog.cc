/**
 * @file
 * The vtsim-evlog-v1 job-lifecycle event log: every line carries the
 * schema tag and a per-daemon monotonic seq, job events chain to their
 * predecessor through `parent`, the preempt/park/resume and
 * crash/retry paths emit the full transition sequence, and — the
 * observability bar — turning the event log and job trace on cannot
 * perturb KernelStats.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gpu/gpu.hh"
#include "service/event_log.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

using service::EventLog;
using service::JobService;
using service::JobSnapshot;
using service::JobSpec;
using service::JobState;
using service::Json;
using service::Priority;
using service::ServiceConfig;

std::string
tempPath(const std::string &tag)
{
    return test::uniqueTempPath("vtsim-evlog-" + tag);
}

/** Parse every line of @p path; a truncated final line (daemon killed
 *  mid-write) is skipped, anything else malformed fails the test. */
std::vector<Json>
readLog(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            lines.push_back(line);
    std::vector<Json> events;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        try {
            events.push_back(Json::parse(lines[i]));
        } catch (const std::exception &e) {
            EXPECT_EQ(i, lines.size() - 1)
                << "unparseable non-tail line " << i << ": " << lines[i];
        }
    }
    return events;
}

/** Fields (beyond v/seq/t_ms/event) every kind must carry — keep in
 *  lockstep with src/service/event_log.hh and
 *  scripts/validate_evlog.py. */
const std::map<std::string, std::vector<std::string>> &
requiredFields()
{
    static const std::map<std::string, std::vector<std::string>> table = {
        {"log_open", {"pid"}},
        {"service_start", {"workers", "queue_limit", "preempt_every"}},
        {"listening", {"socket"}},
        {"accept_error", {"error"}},
        {"submit", {"workload", "scale", "priority"}},
        {"admit", {"job", "parent", "workload", "scale", "priority"}},
        {"reject", {"parent", "reason"}},
        {"start", {"job", "parent", "worker", "attempt", "wait_ms"}},
        {"resume", {"job", "parent", "worker", "wait_ms"}},
        {"checkpoint", {"job", "parent", "bytes", "write_ms"}},
        {"preempt", {"job", "parent", "by_priority"}},
        {"park", {"job", "parent", "slice_ms"}},
        {"crash", {"job", "parent", "attempt", "reason"}},
        {"retry", {"job", "parent", "from"}},
        {"finish", {"job", "parent", "cycles", "wall_ms", "verified"}},
        {"fail", {"job", "parent", "reason"}},
        {"cancel", {"job", "parent"}},
        {"drain", {}},
        {"service_stop", {}},
    };
    return table;
}

/** The invariants every vtsim-evlog-v1 document obeys. */
void
checkLogInvariants(const std::vector<Json> &events)
{
    ASSERT_FALSE(events.empty());
    std::map<std::int64_t, std::int64_t> lastSeqPerJob;
    std::map<std::int64_t, std::string> kindAtSeq;
    double lastTms = -1.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &e = events[i];
        ASSERT_TRUE(e.isObject()) << "event " << i;
        ASSERT_NE(e.find("v"), nullptr);
        EXPECT_EQ(e.find("v")->asString(), "vtsim-evlog-v1");
        // seq is consecutive from 1 — nothing is ever dropped or
        // reordered inside one daemon's log.
        ASSERT_NE(e.find("seq"), nullptr);
        EXPECT_EQ(e.find("seq")->asInt(), std::int64_t(i) + 1);
        ASSERT_NE(e.find("t_ms"), nullptr);
        EXPECT_GE(e.find("t_ms")->asDouble(), lastTms);
        lastTms = e.find("t_ms")->asDouble();

        ASSERT_NE(e.find("event"), nullptr) << "event " << i;
        const std::string kind = e.find("event")->asString();
        kindAtSeq[std::int64_t(i) + 1] = kind;
        const auto req = requiredFields().find(kind);
        ASSERT_NE(req, requiredFields().end()) << "unknown kind " << kind;
        for (const std::string &field : req->second)
            EXPECT_NE(e.find(field), nullptr)
                << kind << " missing " << field;

        // Per-job causality: parent is the job's previous event (the
        // matching submit for admit).
        if (const Json *job = e.find("job")) {
            const std::int64_t id = job->asInt();
            const std::int64_t parent = e.find("parent")->asInt();
            if (kind == "admit") {
                EXPECT_EQ(kindAtSeq[parent], "submit") << "event " << i;
            } else {
                EXPECT_EQ(parent, lastSeqPerJob[id])
                    << kind << " of job " << id;
            }
            lastSeqPerJob[id] = std::int64_t(i) + 1;
        }
    }
    EXPECT_EQ(events.front().find("event")->asString(), "log_open");
    EXPECT_EQ(events[1].find("event")->asString(), "service_start");
    EXPECT_EQ(events[events.size() - 2].find("event")->asString(),
              "drain");
    EXPECT_EQ(events.back().find("event")->asString(), "service_stop");
}

std::map<std::string, int>
countKinds(const std::vector<Json> &events)
{
    std::map<std::string, int> kinds;
    for (const Json &e : events)
        ++kinds[e.find("event")->asString()];
    return kinds;
}

void
spinUntilStarted(JobService &service, service::JobId id)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        if (service.query(id).state != JobState::Queued)
            return;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "job " << id << " never started";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

// --------------------------------------------------------------------
// EventLog writer in isolation
// --------------------------------------------------------------------

TEST(EventLog, SeqIsMonotonicAndJobEventsChain)
{
    const std::string path = tempPath("unit.jsonl");
    {
        EventLog log(path); // Emits log_open as seq 1.
        Json::Object start;
        start["workers"] = Json(std::int64_t(1));
        start["queue_limit"] = Json(std::int64_t(4));
        start["preempt_every"] = Json(std::int64_t(0));
        EXPECT_EQ(log.emit("service_start", std::move(start)), 2u);

        Json::Object sub;
        sub["workload"] = Json("vecadd");
        sub["scale"] = Json(std::int64_t(1));
        sub["priority"] = Json("normal");
        const std::uint64_t submitSeq = log.emit("submit", std::move(sub));
        EXPECT_EQ(submitSeq, 3u);

        Json::Object admit;
        admit["workload"] = Json("vecadd");
        admit["scale"] = Json(std::int64_t(1));
        admit["priority"] = Json("normal");
        const std::uint64_t admitSeq =
            log.emitJob("admit", 1, submitSeq, std::move(admit));
        EXPECT_EQ(admitSeq, 4u);
        log.emit("drain");
        log.emit("service_stop");
    }
    const auto events = readLog(path);
    ASSERT_EQ(events.size(), 6u);
    checkLogInvariants(events);
    EXPECT_EQ(events[3].find("parent")->asInt(), 3);
    EXPECT_EQ(events[3].find("job")->asInt(), 1);
}

TEST(EventLog, TruncatedTailLineIsTolerated)
{
    const std::string path = tempPath("truncated.jsonl");
    {
        EventLog log(path);
        log.emit("service_start");
    }
    std::ofstream(path, std::ios::app)
        << "{\"v\":\"vtsim-evlog-v1\",\"seq\":3,\"event\":\"fini";
    const auto events = readLog(path);
    EXPECT_EQ(events.size(), 2u); // The partial line is skipped.
}

// --------------------------------------------------------------------
// JobService lifecycle coverage
// --------------------------------------------------------------------

TEST(JobServiceEvlog, PreemptParkResumeSequenceIsLogged)
{
    const std::string evlog = tempPath("preempt.jsonl");
    ServiceConfig config;
    config.workers = 1;
    config.preemptEvery = 500;
    config.spoolDir = tempPath("preempt-spool");
    config.eventLogPath = evlog;
    config.jobTracePath = tempPath("preempt.trace.json");
    {
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
        ASSERT_EQ(service.wait(high.id).state, JobState::Done);
        const JobSnapshot lowSnap = service.wait(low.id);
        ASSERT_EQ(lowSnap.state, JobState::Done);
        ASSERT_GE(lowSnap.preemptions, 1u);
        service.shutdown();
    }
    const auto events = readLog(evlog);
    checkLogInvariants(events);
    const auto kinds = countKinds(events);
    EXPECT_EQ(kinds.at("submit"), 2);
    EXPECT_EQ(kinds.at("admit"), 2);
    EXPECT_EQ(kinds.at("finish"), 2);
    // The preemption leaves the full transition trail: preempt →
    // checkpoint write → park → resume.
    EXPECT_GE(kinds.at("preempt"), 1);
    EXPECT_GE(kinds.at("checkpoint"), 1);
    EXPECT_GE(kinds.at("park"), 1);
    EXPECT_GE(kinds.at("resume"), 1);

    // The job trace is valid JSON with balanced duration events.
    std::ifstream trace(config.jobTracePath);
    ASSERT_TRUE(trace.good());
    std::string text((std::istreambuf_iterator<char>(trace)),
                     std::istreambuf_iterator<char>());
    const Json doc = Json::parse(text);
    int begins = 0, ends = 0;
    for (const Json &e : doc.find("traceEvents")->asArray()) {
        const std::string ph = e.find("ph")->asString();
        begins += ph == "B";
        ends += ph == "E";
    }
    EXPECT_GT(begins, 0);
    EXPECT_EQ(begins, ends);
}

TEST(JobServiceEvlog, CrashRetryAndRejectAreLogged)
{
    const std::string evlog = tempPath("crash.jsonl");
    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempPath("crash-spool");
    config.eventLogPath = evlog;
    {
        JobService service(config);
        JobSpec bad;
        bad.workload = "no-such-benchmark";
        EXPECT_FALSE(service.submit(bad, Priority::Normal).ok());

        JobSpec spec;
        spec.workload = "needle";
        spec.scale = 0;
        spec.checkpointEvery = 2000;
        spec.injectFail = 1; // Attempt 1 checkpoints, then dies.
        const auto job = service.submit(spec, Priority::Normal);
        ASSERT_TRUE(job.ok());
        const JobSnapshot snap = service.wait(job.id);
        ASSERT_EQ(snap.state, JobState::Done);
        ASSERT_EQ(snap.retries, 1u);
        service.shutdown();
    }
    const auto events = readLog(evlog);
    checkLogInvariants(events);
    const auto kinds = countKinds(events);
    EXPECT_EQ(kinds.at("reject"), 1);
    EXPECT_EQ(kinds.at("crash"), 1);
    EXPECT_EQ(kinds.at("retry"), 1);
    EXPECT_EQ(kinds.at("finish"), 1);
    // Two starts: the first attempt and the post-retry attempt.
    EXPECT_EQ(kinds.at("start"), 2);
    for (const Json &e : events) {
        const std::string kind = e.find("event")->asString();
        if (kind == "retry")
            EXPECT_EQ(e.find("from")->asString(), "checkpoint");
        if (kind == "start" && e.find("attempt")->asInt() == 2)
            return; // Saw the retried attempt — all good.
    }
    FAIL() << "no start event with attempt=2";
}

TEST(JobServiceEvlog, ObservabilityDoesNotPerturbKernelStats)
{
    // The oracle: the same workload, uninterrupted, no observability.
    auto wl = makeWorkload("reduce", 1);
    const Kernel kernel = wl->buildKernel();
    Gpu gpu{GpuConfig::fermiLike()};
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats base = gpu.launch(kernel, lp);
    ASSERT_TRUE(wl->verify(gpu.memory()));

    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempPath("identity-spool");
    config.eventLogPath = tempPath("identity.jsonl");
    config.jobTracePath = tempPath("identity.trace.json");
    JobService service(config);
    JobSpec spec;
    spec.workload = "reduce";
    spec.scale = 1;
    const auto job = service.submit(spec, Priority::Normal);
    ASSERT_TRUE(job.ok());
    const JobSnapshot snap = service.wait(job.id);
    ASSERT_EQ(snap.state, JobState::Done);
    EXPECT_TRUE(snap.verified);
    EXPECT_EQ(service::kernelStatsToJson(base).dump(),
              service::kernelStatsToJson(snap.stats).dump());
}

} // namespace
} // namespace vtsim
