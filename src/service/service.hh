/**
 * @file
 * JobService — the preemptive simulation-job scheduler behind vtsimd.
 *
 * Clients submit jobs (src/service/job.hh) that are admitted into a
 * bounded priority queue (src/service/job_queue.hh) and scheduled onto
 * a WorkerPool. The service applies the paper's oversubscription trick
 * at the job level:
 *
 *  - Admission beyond the worker count: jobs queue, bulky simulation
 *    state exists only for the `workers` jobs actually running.
 *  - Preemption at checkpoint boundaries: when a higher-priority job
 *    has to wait, the lowest-priority running job is asked to stop at
 *    its next checkpoint-cadence boundary (Gpu::requestPreempt). The
 *    worker saves a vtsim-ckpt-v1 image into the spool directory,
 *    parks the job (cheap JobRecord resident, scheduling slot freed)
 *    and the queue hands the slot to the high-priority job. A parked
 *    job later resumes bit-identically — its final KernelStats equal
 *    the uninterrupted run's.
 *  - Crash recovery: a job whose attempt throws is retried once, from
 *    its last parked checkpoint when one exists, from scratch
 *    otherwise; a second failure is reported with the reason.
 *
 * Service telemetry (queue depth, wait time, preemptions, retries,
 * per-job sim rate, worker utilization) lives in a StatGroup flattened
 * into a StatRegistry — the same machinery the simulated components
 * use — and is exported by status() and the service stats JSON
 * (src/service/stats_json.hh).
 */

#ifndef VTSIM_SERVICE_SERVICE_HH
#define VTSIM_SERVICE_SERVICE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/event_log.hh"
#include "service/job.hh"
#include "service/job_queue.hh"
#include "service/json.hh"
#include "service/stats_json.hh"
#include "service/worker_pool.hh"
#include "stats/stats.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_json.hh"

namespace vtsim::service {

/** Everything the service tracks about one admitted job. */
struct JobRecord
{
    JobId id = 0;
    /** Admission order; ties within a priority resolve oldest-first
     *  and survive parking, so resumes precede later arrivals. */
    std::uint64_t seq = 0;
    Priority priority = Priority::Normal;
    JobSpec spec;
    JobState state = JobState::Queued;

    std::uint64_t preemptions = 0;
    std::uint64_t retries = 0;
    std::uint64_t injectedFailures = 0;
    /** Parked vtsim-ckpt-v1 image (empty = none). */
    std::string checkpointFile;
    std::string failureReason;

    std::chrono::steady_clock::time_point submitted;
    /** When the job last (re)entered the queue — admission, parking,
     *  or a retry readmit; start/resume events report the wait since. */
    std::chrono::steady_clock::time_point lastQueuedAt;
    bool everStarted = false;
    double waitSeconds = 0.0;
    double wallSeconds = 0.0;
    std::string intervalSeries;

    /** seq of this job's latest event-log line (0 before the first);
     *  the next event carries it as "parent" — per-job causality. */
    std::uint64_t lastEventSeq = 0;

    // Terminal result (state == Done).
    KernelStats stats;
    bool verified = false;
    std::uint32_t maxSimtDepth = 0;
    /** Per-grid results of a multi-kernel job (empty for classic). */
    std::vector<GridStats> grids;
};

struct ServiceConfig
{
    unsigned workers = 2;
    /** Queue-depth bound; submits beyond it get rejected:queue_full. */
    std::size_t queueLimit = 64;
    /**
     * Default preemption/checkpoint cadence (cycles) for jobs that do
     * not set checkpoint_every; 0 makes jobs non-preemptible unless
     * they opt in.
     */
    Cycle preemptEvery = 25000;
    /** Where parked checkpoint images live (created on demand). */
    std::string spoolDir = "vtsimd-spool";
    /**
     * Largest per-job shard-thread request (JobSpec::simThreads) the
     * service admits; bigger asks are rejected at submit with a
     * validation error rather than silently clamped — a client that
     * sized its request to the simulated machine should hear that this
     * daemon will not honor it. Kept small by default because workers
     * already run concurrently and the two multiply.
     */
    unsigned maxSimThreads = 4;
    /**
     * JSONL lifecycle event log (vtsim-evlog-v1, service/event_log.hh);
     * empty = disabled. Every submit/admit/start/preempt/park/resume/
     * crash/retry/finish transition is one line with per-job causality.
     */
    std::string eventLogPath;
    /**
     * Perfetto trace of job lifecycles (telemetry/trace_json.hh);
     * empty = disabled. Process 0 has one thread per worker (run
     * slices, nested checkpoint writes); process 1 has one thread per
     * job (queued/running/parked phase spans plus instants).
     * Timestamps are wall-clock microseconds since service start.
     */
    std::string jobTracePath;
};

class JobService
{
  public:
    explicit JobService(ServiceConfig config);

    /** Drains admitted jobs and joins the pool (as shutdown()). */
    ~JobService();

    struct SubmitOutcome
    {
        JobId id = 0;              ///< Nonzero on acceptance.
        std::string rejected;      ///< "queue_full" | "shutting_down".
        std::string error;         ///< Validation failure.
        bool ok() const { return id != 0; }
    };

    /** Validate and admit @p spec at @p priority. Never throws. */
    SubmitOutcome submit(const JobSpec &spec, Priority priority);

    /** Block until @p id is terminal; throws ProtocolError on an
     *  unknown id. */
    JobSnapshot wait(JobId id);

    /** Current state of @p id; throws ProtocolError on an unknown id. */
    JobSnapshot query(JobId id);

    /** Cancel a queued or parked job. False (with @p error set) when
     *  the job is unknown, running, or already terminal. */
    bool cancel(JobId id, std::string &error);

    /** Service telemetry snapshot (the status reply body). */
    Json status() const;

    /** The "service" section of the service stats JSON. */
    Json statsJsonSection() const;

    /** Completed jobs as stats-JSON run records, in job-id order. */
    std::vector<RunRecord> completedRuns() const;

    /**
     * Stop accepting submissions, drain every already-admitted job
     * (including parked and retrying ones) and retire the workers.
     * Idempotent; called by the destructor if not called explicitly.
     */
    void shutdown();

    const ServiceConfig &config() const { return config_; }

    /** The service StatGroup flattened by dotted path. */
    const telemetry::StatRegistry &telemetryRegistry() const
    { return registry_; }

    /**
     * The full registry in Prometheus text format (the `metrics` op
     * body and the --metrics-file payload). Takes the service lock, so
     * the scrape is a consistent snapshot.
     */
    std::string metricsText() const;

    /** The lifecycle event log, or nullptr (the daemon logs accept
     *  errors and its listening socket through it). */
    EventLog *eventLog() { return evlog_.get(); }

  private:
    struct RunningSlot
    {
        JobRecord *job = nullptr;
        Gpu *gpu = nullptr;        ///< Valid while the task runs.
        bool preemptSignalled = false;
    };

    bool nextTask(WorkerPool::Task &out, unsigned worker);
    void runJob(GpuArena &arena, JobRecord &job, unsigned worker);
    /** Park @p gpu's state for @p job in the spool dir. */
    void parkImage(JobRecord &job, Gpu &gpu, unsigned worker);
    /** Preempt the weakest running job if @p priority must wait. */
    void maybePreempt(Priority priority);
    JobSnapshot snapshotLocked(const JobRecord &job) const;
    void noteQueueDepthLocked();

    /** Event-log emit chained through @p job.lastEventSeq; no-op when
     *  the log is disabled. Caller holds mu_ (lastEventSeq access). */
    void eventLocked(JobRecord &job, const char *event,
                     Json::Object fields = {});

    // Job-trace helpers: TraceJsonWriter is not thread-safe, so every
    // write goes through traceMu_; all are no-ops without a trace.
    Cycle traceNowUs() const;
    void traceWorkerBegin(unsigned worker, const std::string &name);
    void traceWorkerEnd(unsigned worker);
    void traceJobBegin(JobId id, const char *phase);
    void traceJobEnd(JobId id);
    void traceJobInstant(JobId id, const std::string &name);
    /** Name the job's thread track on its first trace event. */
    void traceJobThread(const JobRecord &job);

    ServiceConfig config_;

    mutable std::mutex mu_;
    std::condition_variable workCv_;  ///< Workers wait for jobs.
    std::condition_variable doneCv_;  ///< wait() blocks here.

    JobQueue queue_;
    std::map<JobId, std::unique_ptr<JobRecord>> jobs_;
    std::vector<RunningSlot> running_;
    JobId nextId_ = 1;
    std::uint64_t nextSeq_ = 1;
    bool shuttingDown_ = false;
    bool joined_ = false;
    std::once_flag shutdownOnce_;

    std::chrono::steady_clock::time_point started_;

    // --- Telemetry (registered in statsGroup_/registry_) -------------
    Counter submitted_;
    Counter completed_;
    Counter failed_;
    Counter rejectedFull_;
    Counter cancelled_;
    Counter preemptions_;
    Counter retries_;
    std::uint64_t queueDepth_ = 0;     ///< Gauge.
    std::uint64_t runningJobs_ = 0;    ///< Gauge.
    std::uint64_t parkedJobs_ = 0;     ///< Gauge.
    std::uint64_t maxQueueDepth_ = 0;
    ScalarStat waitSeconds_;           ///< Per first start.
    ScalarStat jobKcyclesPerSec_;      ///< Per completed job.
    // Latency distributions (ScalarStat for count/sum/min/max plus a
    // fixed-width Histogram under "<name>_hist" for percentiles; the
    // Prometheus exporter emits both families).
    ScalarStat queueWaitSeconds_;      ///< Every start/resume.
    ScalarStat runSliceSeconds_;       ///< Every run slice.
    ScalarStat preemptResumeSeconds_;  ///< Park-to-resume latency.
    ScalarStat checkpointWriteSeconds_;
    Histogram queueWaitHist_{20, 0.05};
    Histogram runSliceHist_{20, 0.1};
    Histogram preemptResumeHist_{20, 0.05};
    Histogram checkpointWriteHist_{20, 0.005};
    double busySeconds_ = 0.0;
    StatGroup statsGroup_{"service"};
    telemetry::StatRegistry registry_;

    std::unique_ptr<EventLog> evlog_;
    /** Serializes every jobTrace_ write (workers race otherwise). */
    mutable std::mutex traceMu_;
    std::unique_ptr<telemetry::TraceJsonWriter> jobTrace_;

    // Construction order: pool_ last so worker threads only start once
    // every member above is initialized; shutdown() joins it first.
    std::unique_ptr<WorkerPool> pool_;
};

} // namespace vtsim::service

#endif // VTSIM_SERVICE_SERVICE_HH
