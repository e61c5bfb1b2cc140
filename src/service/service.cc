#include "service/service.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "common/logger.hh"
#include "config/sim_mode.hh"
#include "service/protocol.hh"
#include "telemetry/prometheus.hh"
#include "workloads/workload.hh"

namespace vtsim::service {

namespace {

bool
terminalState(JobState s)
{
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Cancelled;
}

/** Best-effort removal of a job's parked image. */
void
dropSpoolFile(JobRecord &job)
{
    if (job.checkpointFile.empty())
        return;
    std::error_code ec;
    std::filesystem::remove(job.checkpointFile, ec);
    job.checkpointFile.clear();
}

std::vector<std::uint8_t>
loadImage(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        throw std::runtime_error("cannot open parked checkpoint '" +
                                 path + "'");
    }
    std::vector<std::uint8_t> image(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    if (!is.good() && !is.eof())
        throw std::runtime_error("short read from '" + path + "'");
    return image;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Worker-track process and job-track process ids of the job trace. */
constexpr std::uint32_t kTraceWorkersPid = 0;
constexpr std::uint32_t kTraceJobsPid = 1;

} // namespace

JobService::JobService(ServiceConfig config)
    : config_(std::move(config)),
      queue_(config_.queueLimit),
      started_(std::chrono::steady_clock::now())
{
    if (config_.workers < 1)
        config_.workers = 1;
    running_.resize(config_.workers);

    statsGroup_.addCounter("jobs_submitted", &submitted_,
                           "jobs admitted into the queue");
    statsGroup_.addCounter("jobs_completed", &completed_,
                           "jobs finished with verified results");
    statsGroup_.addCounter("jobs_failed", &failed_,
                           "jobs that exhausted their retry");
    statsGroup_.addCounter("jobs_rejected_full", &rejectedFull_,
                           "submissions rejected by admission control");
    statsGroup_.addCounter("jobs_cancelled", &cancelled_,
                           "jobs cancelled before completion");
    statsGroup_.addCounter("preemptions", &preemptions_,
                           "jobs parked at a checkpoint boundary");
    statsGroup_.addCounter("retries", &retries_,
                           "failed attempts retried from a checkpoint "
                           "or from scratch");
    statsGroup_.addValue("queue_depth", &queueDepth_,
                         "jobs waiting for a worker right now");
    statsGroup_.addValue("max_queue_depth", &maxQueueDepth_,
                         "deepest the queue has been");
    statsGroup_.addValue("running_jobs", &runningJobs_,
                         "jobs on a worker right now");
    statsGroup_.addValue("parked_jobs", &parkedJobs_,
                         "preempted jobs with state spooled to disk");
    statsGroup_.addScalar("wait_seconds", &waitSeconds_,
                          "admission-to-first-start latency per job");
    statsGroup_.addScalar("job_kcycles_per_sec", &jobKcyclesPerSec_,
                          "simulation rate per completed job");
    statsGroup_.addScalar("queue_wait_seconds", &queueWaitSeconds_,
                          "queue wait per start or resume");
    statsGroup_.addScalar("run_seconds", &runSliceSeconds_,
                          "worker-occupancy per run slice");
    statsGroup_.addScalar("preempt_to_resume_seconds",
                          &preemptResumeSeconds_,
                          "park-to-resume latency per preemption");
    statsGroup_.addScalar("checkpoint_write_seconds",
                          &checkpointWriteSeconds_,
                          "serialize-and-spool time per parked image");
    statsGroup_.addHistogram("queue_wait_seconds_hist", &queueWaitHist_,
                             "queue-wait distribution (50 ms buckets)");
    statsGroup_.addHistogram("run_seconds_hist", &runSliceHist_,
                             "run-slice distribution (100 ms buckets)");
    statsGroup_.addHistogram("preempt_to_resume_seconds_hist",
                             &preemptResumeHist_,
                             "park-to-resume distribution (50 ms "
                             "buckets)");
    statsGroup_.addHistogram("checkpoint_write_seconds_hist",
                             &checkpointWriteHist_,
                             "checkpoint-write distribution (5 ms "
                             "buckets)");
    registry_.addGroup(statsGroup_);

    if (!config_.eventLogPath.empty()) {
        evlog_ = std::make_unique<EventLog>(config_.eventLogPath);
        evlog_->emit(
            "service_start",
            {{"workers", Json(unsigned(config_.workers))},
             {"queue_limit", Json(std::uint64_t(config_.queueLimit))},
             {"preempt_every",
              Json(std::uint64_t(config_.preemptEvery))}});
    }
    if (!config_.jobTracePath.empty()) {
        jobTrace_ = std::make_unique<telemetry::TraceJsonWriter>(
            config_.jobTracePath);
        jobTrace_->processName(kTraceWorkersPid, "vtsimd workers");
        jobTrace_->processName(kTraceJobsPid, "vtsimd jobs");
        for (unsigned w = 0; w < config_.workers; ++w) {
            jobTrace_->threadName(kTraceWorkersPid, w,
                                  "worker " + std::to_string(w));
        }
    }

    pool_ = std::make_unique<WorkerPool>(
        config_.workers,
        [this](WorkerPool::Task &out, unsigned worker) {
            return nextTask(out, worker);
        });
}

JobService::~JobService()
{
    shutdown();
}

void
JobService::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!shuttingDown_ && evlog_)
            evlog_->emit("drain");
        shuttingDown_ = true;
        workCv_.notify_all();
    }
    // call_once blocks concurrent callers until the drain completes,
    // so shutdown() is safe from the daemon's connection threads and
    // the destructor at once.
    std::call_once(shutdownOnce_, [this] {
        pool_->join();
        if (evlog_)
            evlog_->emit("service_stop");
        std::lock_guard<std::mutex> lk(traceMu_);
        if (jobTrace_)
            jobTrace_->close();
    });
    std::lock_guard<std::mutex> lk(mu_);
    joined_ = true;
}

JobService::SubmitOutcome
JobService::submit(const JobSpec &spec, Priority priority)
{
    SubmitOutcome out;
    // The submit event precedes admission: rejected submissions still
    // appear in the log, with the reject line's parent pointing here.
    std::uint64_t submit_seq = 0;
    if (evlog_) {
        submit_seq = evlog_->emit(
            "submit", {{"workload", Json(spec.workload)},
                       {"scale", Json(spec.scale)},
                       {"priority", Json(toString(priority))}});
    }
    const auto reject = [&](const std::string &reason) {
        if (evlog_) {
            evlog_->emit("reject", {{"parent", Json(submit_seq)},
                                    {"reason", Json(reason)}});
        }
    };
    if (spec.workload.empty()) {
        out.error = "workload must not be empty";
        reject(out.error);
        return out;
    }
    if (spec.gridWorkloads().size() > maxGrids) {
        out.error = "a job carries at most " + std::to_string(maxGrids) +
                    " kernels";
        reject(out.error);
        return out;
    }
    try {
        // Scale-0 probe: reject unknown workload names at admission,
        // not minutes later on a worker.
        for (const std::string &name : spec.gridWorkloads())
            makeWorkload(name, 0);
    } catch (const std::exception &e) {
        out.error = e.what();
        reject(out.error);
        return out;
    }
    {
        // Execution-mode matrix (config/sim_mode.hh): record vs co-run,
        // preempt without VT, ... — one shared error path.
        SimModeSpec mode;
        mode.recordTrace = !spec.recordTrace.empty();
        mode.checkpointEvery = spec.checkpointEvery;
        mode.numGrids = spec.gridWorkloads().size();
        mode.preemptPolicy = spec.sharePolicy == SharePolicy::Preempt;
        mode.vtEnabled = spec.config.vtEnabled;
        const std::string mode_error = validateSimMode(mode);
        if (!mode_error.empty()) {
            out.error = mode_error;
            reject(out.error);
            return out;
        }
    }
    if (spec.simThreads > config_.maxSimThreads) {
        out.error = "sim_threads " + std::to_string(spec.simThreads) +
                    " exceeds this service's limit of " +
                    std::to_string(config_.maxSimThreads);
        reject(out.error);
        return out;
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (shuttingDown_) {
        out.rejected = "shutting_down";
        reject(out.rejected);
        return out;
    }
    auto record = std::make_unique<JobRecord>();
    record->id = nextId_;
    record->seq = nextSeq_;
    record->priority = priority;
    record->spec = spec;
    record->submitted = std::chrono::steady_clock::now();
    record->lastQueuedAt = record->submitted;
    if (!queue_.admit(record.get())) {
        ++rejectedFull_;
        out.rejected = "queue_full";
        reject(out.rejected);
        return out;
    }
    ++nextId_;
    ++nextSeq_;
    ++submitted_;
    out.id = record->id;
    JobRecord &job = *record;
    jobs_.emplace(out.id, std::move(record));
    job.lastEventSeq = submit_seq;
    eventLocked(job, "admit",
                {{"workload", Json(job.spec.workload)},
                 {"scale", Json(job.spec.scale)},
                 {"priority", Json(toString(job.priority))}});
    traceJobThread(job);
    traceJobInstant(job.id, "submit");
    traceJobBegin(job.id, "queued");
    noteQueueDepthLocked();
    maybePreempt(priority);
    workCv_.notify_one();
    return out;
}

void
JobService::maybePreempt(Priority priority)
{
    if (runningJobs_ < running_.size())
        return; // A worker is free (or about to pull the new job).
    RunningSlot *victim = nullptr;
    for (auto &slot : running_) {
        if (!slot.job || slot.preemptSignalled)
            continue;
        if (slot.job->priority >= priority)
            continue;
        const Cycle cadence =
            !slot.job->spec.recordTrace.empty()
                ? 0
                : slot.job->spec.checkpointEvery
                      ? slot.job->spec.checkpointEvery
                      : config_.preemptEvery;
        if (cadence == 0)
            continue; // Opted out of preemption.
        if (!victim || slot.job->priority < victim->job->priority ||
            (slot.job->priority == victim->job->priority &&
             slot.job->seq > victim->job->seq)) {
            victim = &slot; // Weakest first; youngest breaks ties.
        }
    }
    if (!victim)
        return;
    victim->preemptSignalled = true;
    eventLocked(*victim->job, "preempt",
                {{"by_priority", Json(toString(priority))}});
    traceJobInstant(victim->job->id, "preempt");
    // The Gpu appears in the slot once the worker has acquired its
    // arena; before that, runJob sees preemptSignalled and arms the
    // request itself.
    if (victim->gpu)
        victim->gpu->requestPreempt();
}

bool
JobService::nextTask(WorkerPool::Task &out, unsigned worker)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        workCv_.wait(lk,
                     [this] { return shuttingDown_ || !queue_.empty(); });
        JobRecord *job = queue_.pop();
        if (job) {
            const bool was_parked = job->state == JobState::Parked;
            if (was_parked)
                --parkedJobs_;
            const double wait = secondsSince(job->lastQueuedAt);
            queueWaitSeconds_.sample(wait);
            queueWaitHist_.sample(wait);
            if (was_parked) {
                preemptResumeSeconds_.sample(wait);
                preemptResumeHist_.sample(wait);
                eventLocked(*job, "resume",
                            {{"worker", Json(worker)},
                             {"wait_ms", Json(wait * 1e3)}});
            } else {
                eventLocked(*job, "start",
                            {{"worker", Json(worker)},
                             {"attempt", Json(job->retries + 1)},
                             {"wait_ms", Json(wait * 1e3)}});
            }
            traceJobEnd(job->id); // Close the queued/parked span.
            traceJobBegin(job->id, "running");
            job->state = JobState::Running;
            running_[worker] = RunningSlot{job, nullptr, false};
            ++runningJobs_;
            noteQueueDepthLocked();
            // This pop may have taken the last free worker while
            // higher-priority jobs still wait — submit-time preemption
            // checks cannot see that, so re-evaluate for the best job
            // left behind.
            if (const JobRecord *next = queue_.peek())
                maybePreempt(next->priority);
            out = [this, job](GpuArena &arena, unsigned w) {
                runJob(arena, *job, w);
            };
            return true;
        }
        if (shuttingDown_)
            return false; // Drained: retire the worker.
    }
}

void
JobService::runJob(GpuArena &arena, JobRecord &job, unsigned worker)
{
    const auto run_start = std::chrono::steady_clock::now();
    double slice_seconds = 0.0;
    bool slice_accounted = false;
    bool inject = false;
    std::ostringstream interval;
    traceWorkerBegin(worker, "job " + std::to_string(job.id) + " " +
                                 job.spec.workload);
    try {
        // One workload per grid: the classic job is the 1-entry case.
        const std::vector<std::string> names = job.spec.gridWorkloads();
        std::vector<std::unique_ptr<Workload>> workloads;
        std::vector<Kernel> kernels;
        for (const std::string &name : names) {
            workloads.push_back(makeWorkload(name, job.spec.scale));
            kernels.push_back(workloads.back()->buildKernel());
        }
        Gpu &gpu = arena.acquire(job.spec.config);
        std::string resume_from;
        {
            std::lock_guard<std::mutex> lk(mu_);
            RunningSlot &slot = running_[worker];
            slot.gpu = &gpu;
            if (!job.everStarted) {
                job.everStarted = true;
                job.waitSeconds =
                    std::chrono::duration<double>(run_start -
                                                  job.submitted)
                        .count();
                waitSeconds_.sample(job.waitSeconds);
            }
            inject = job.injectedFailures < job.spec.injectFail;
            if (slot.preemptSignalled)
                gpu.requestPreempt(); // Signalled before we had a Gpu.
            resume_from = job.checkpointFile;
        }
        // A recording job opts out of the preemption cadence: trace
        // recording does not compose with mid-run checkpoints (the
        // writer's stream position is not checkpointable), and
        // maybePreempt() already skips cadence-0 slots.
        const Cycle cadence =
            !job.spec.recordTrace.empty() ? 0
            : job.spec.checkpointEvery   ? job.spec.checkpointEvery
                                         : config_.preemptEvery;
        // Applied per slice: GpuArena reuse resets the Gpu (and the
        // shard count) between jobs. The parked image is thread-count
        // agnostic, so a resumed slice may legitimately run with a
        // different sharding than the preempted one.
        if (job.spec.simThreads > 1)
            gpu.setSimThreads(job.spec.simThreads);
        if (!job.spec.recordTrace.empty())
            gpu.enableMtraceRecord(job.spec.recordTrace);
        if (job.spec.statsInterval > 0)
            gpu.enableIntervalSampler(job.spec.statsInterval, interval);
        // Empty path: the cadence only arms preemption boundaries, no
        // per-boundary file is written — images are saved on demand.
        gpu.setCheckpoint("", cadence);
        std::vector<GridLaunch> launches;
        if (!resume_from.empty()) {
            // As in bench_common: prepare() into a scratch memory so
            // the workloads record their buffer addresses and golden
            // outputs for verify() while the restored device contents
            // stay untouched.
            GlobalMemory scratch;
            for (auto &workload : workloads)
                workload->prepare(scratch);
            gpu.restoreCheckpoint(loadImage(resume_from));
            launches = gpu.restoredGrids();
            if (launches.size() != kernels.size()) {
                throw std::runtime_error(
                    "parked image carries " +
                    std::to_string(launches.size()) + " grids, job has " +
                    std::to_string(kernels.size()));
            }
            for (std::size_t g = 0; g < launches.size(); ++g)
                launches[g].kernel = &kernels[g];
        } else {
            for (std::size_t g = 0; g < kernels.size(); ++g) {
                GridLaunch gl;
                gl.kernel = &kernels[g];
                gl.params = workloads[g]->prepare(gpu.memory());
                // Listed-first = higher priority under the preempt
                // policy (lower value wins).
                gl.priority = std::uint32_t(g);
                launches.push_back(std::move(gl));
            }
        }
        if (inject) {
            // Test hook: stop at the first cadence boundary so a
            // checkpoint parks, then fail the attempt below — the
            // retry resumes from that image.
            gpu.requestPreempt();
        }
        const auto t0 = std::chrono::steady_clock::now();
        const KernelStats stats =
            gpu.launchConcurrent(launches, job.spec.sharePolicy);
        slice_seconds = secondsSince(t0);

        if (gpu.preempted()) {
            parkImage(job, gpu, worker);
            {
                std::lock_guard<std::mutex> lk(mu_);
                job.wallSeconds += slice_seconds;
                job.intervalSeries += interval.str();
                busySeconds_ += slice_seconds;
                runSliceSeconds_.sample(slice_seconds);
                runSliceHist_.sample(slice_seconds);
                slice_accounted = true;
                if (inject)
                    ++job.injectedFailures;
            }
            if (inject) {
                throw std::runtime_error(
                    "injected failure (test hook)");
            }
            std::lock_guard<std::mutex> lk(mu_);
            running_[worker] = RunningSlot{};
            --runningJobs_;
            job.state = JobState::Parked;
            ++job.preemptions;
            ++preemptions_;
            ++parkedJobs_;
            job.lastQueuedAt = std::chrono::steady_clock::now();
            eventLocked(job, "park",
                        {{"slice_ms", Json(slice_seconds * 1e3)}});
            traceJobEnd(job.id); // Close the running span.
            traceJobBegin(job.id, "parked");
            traceWorkerEnd(worker);
            queue_.readmit(&job);
            noteQueueDepthLocked();
            workCv_.notify_one();
            return;
        }

        // Completed the grid. A preempt request that raced the finish
        // must not stop the arena's next launch.
        gpu.clearPreemptRequest();
        if (inject) {
            // Finished before the first boundary (or cadence 0): no
            // checkpoint parked, so the injected retry runs from
            // scratch.
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++job.injectedFailures;
            }
            throw std::runtime_error("injected failure (test hook)");
        }
        std::uint32_t depth = 0;
        for (std::uint32_t i = 0; i < gpu.numSms(); ++i)
            depth = std::max(depth, gpu.sm(i).maxSimtDepthSeen());
        bool verified = true;
        for (auto &workload : workloads)
            verified = workload->verify(gpu.memory()) && verified;
        const std::vector<GridStats> grid_stats =
            names.size() > 1 ? gpu.gridStats()
                             : std::vector<GridStats>{};

        std::lock_guard<std::mutex> lk(mu_);
        running_[worker] = RunningSlot{};
        --runningJobs_;
        job.wallSeconds += slice_seconds;
        job.intervalSeries += interval.str();
        busySeconds_ += slice_seconds;
        runSliceSeconds_.sample(slice_seconds);
        runSliceHist_.sample(slice_seconds);
        job.stats = stats;
        job.verified = verified;
        job.maxSimtDepth = depth;
        job.grids = grid_stats;
        dropSpoolFile(job);
        if (verified) {
            job.state = JobState::Done;
            ++completed_;
            if (job.wallSeconds > 0.0) {
                jobKcyclesPerSec_.sample(double(stats.cycles) /
                                         job.wallSeconds / 1e3);
            }
            eventLocked(job, "finish",
                        {{"cycles", Json(stats.cycles)},
                         {"wall_ms", Json(job.wallSeconds * 1e3)},
                         {"verified", Json(true)}});
        } else {
            // Deterministic wrong answers: retrying cannot help.
            job.state = JobState::Failed;
            job.failureReason = "verification failed: wrong results";
            ++failed_;
            eventLocked(job, "fail",
                        {{"reason", Json(job.failureReason)}});
        }
        traceJobEnd(job.id); // Close the running span.
        traceJobInstant(job.id, verified ? "finish" : "fail");
        traceWorkerEnd(worker);
        doneCv_.notify_all();
    } catch (const std::exception &e) {
        // Whatever threw may have left the Gpu mid-launch: never reuse
        // that arena.
        arena.discard();
        std::lock_guard<std::mutex> lk(mu_);
        running_[worker] = RunningSlot{};
        --runningJobs_;
        if (!slice_accounted) {
            if (slice_seconds == 0.0)
                slice_seconds = secondsSince(run_start);
            job.wallSeconds += slice_seconds;
            busySeconds_ += slice_seconds;
            runSliceSeconds_.sample(slice_seconds);
            runSliceHist_.sample(slice_seconds);
        }
        eventLocked(job, "crash",
                    {{"attempt", Json(job.retries + 1)},
                     {"reason", Json(std::string(e.what()))}});
        traceJobEnd(job.id); // Close the running span.
        traceJobInstant(job.id, "crash");
        traceWorkerEnd(worker);
        if (job.retries < 1) {
            ++job.retries;
            ++retries_;
            const bool from_ckpt = !job.checkpointFile.empty();
            if (!from_ckpt) {
                // From-scratch rerun regenerates the whole series; a
                // checkpointed rerun resumes where the parked slices
                // left off, so those stay.
                job.intervalSeries.clear();
            }
            logging::warn("vtsimd", "job ", job.id,
                          " attempt failed (", e.what(),
                          "); retrying from ",
                          from_ckpt ? job.checkpointFile.c_str()
                                    : "scratch");
            eventLocked(job, "retry",
                        {{"from", Json(from_ckpt ? "checkpoint"
                                                 : "scratch")}});
            job.state = JobState::Queued;
            job.lastQueuedAt = std::chrono::steady_clock::now();
            traceJobBegin(job.id, "queued");
            queue_.readmit(&job);
            noteQueueDepthLocked();
            workCv_.notify_one();
        } else {
            job.state = JobState::Failed;
            job.failureReason = e.what();
            ++failed_;
            dropSpoolFile(job);
            logging::error("vtsimd", "job ", job.id,
                           " failed permanently: ", e.what());
            eventLocked(job, "fail",
                        {{"reason", Json(job.failureReason)}});
            doneCv_.notify_all();
        }
    }
}

void
JobService::parkImage(JobRecord &job, Gpu &gpu, unsigned worker)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> image;
    gpu.saveCheckpoint(image);
    std::error_code ec;
    std::filesystem::create_directories(config_.spoolDir, ec);
    const std::string path =
        config_.spoolDir + "/job-" + std::to_string(job.id) + ".ckpt";
    traceWorkerBegin(worker, "checkpoint-write"); // Nested in the slice.
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        traceWorkerEnd(worker);
        throw std::runtime_error("cannot open spool file '" + path +
                                 "'");
    }
    os.write(reinterpret_cast<const char *>(image.data()),
             std::streamsize(image.size()));
    os.flush();
    traceWorkerEnd(worker);
    if (!os)
        throw std::runtime_error("short write to spool file '" + path +
                                 "'");
    // Only the owning worker touches checkpointFile while the job runs
    // (cancel refuses running jobs), so no lock is needed here.
    job.checkpointFile = path;
    const double write_seconds = secondsSince(t0);
    std::lock_guard<std::mutex> lk(mu_);
    checkpointWriteSeconds_.sample(write_seconds);
    checkpointWriteHist_.sample(write_seconds);
    eventLocked(job, "checkpoint",
                {{"bytes", Json(std::uint64_t(image.size()))},
                 {"write_ms", Json(write_seconds * 1e3)}});
}

JobSnapshot
JobService::wait(JobId id)
{
    std::unique_lock<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        throw ProtocolError("unknown job " + std::to_string(id));
    JobRecord &job = *it->second;
    doneCv_.wait(lk, [&job] { return terminalState(job.state); });
    return snapshotLocked(job);
}

JobSnapshot
JobService::query(JobId id)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        throw ProtocolError("unknown job " + std::to_string(id));
    return snapshotLocked(*it->second);
}

bool
JobService::cancel(JobId id, std::string &error)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        error = "unknown job " + std::to_string(id);
        return false;
    }
    JobRecord &job = *it->second;
    if (job.state == JobState::Running) {
        error = "job is running; only queued or parked jobs cancel";
        return false;
    }
    if (terminalState(job.state)) {
        error = "job already " + toString(job.state);
        return false;
    }
    if (!queue_.remove(&job)) {
        error = "job is not waiting"; // Unreachable by construction.
        return false;
    }
    if (job.state == JobState::Parked)
        --parkedJobs_;
    dropSpoolFile(job);
    job.state = JobState::Cancelled;
    ++cancelled_;
    eventLocked(job, "cancel");
    traceJobEnd(job.id); // Close the queued/parked span.
    traceJobInstant(job.id, "cancel");
    noteQueueDepthLocked();
    doneCv_.notify_all();
    return true;
}

JobSnapshot
JobService::snapshotLocked(const JobRecord &job) const
{
    JobSnapshot snap;
    snap.id = job.id;
    snap.state = job.state;
    snap.priority = job.priority;
    snap.workload = job.spec.workload;
    snap.scale = job.spec.scale;
    snap.simThreads = job.spec.simThreads;
    snap.preemptions = job.preemptions;
    snap.retries = job.retries;
    snap.waitSeconds = job.waitSeconds;
    snap.wallSeconds = job.wallSeconds;
    snap.failureReason = job.failureReason;
    snap.stats = job.stats;
    snap.verified = job.verified;
    snap.maxSimtDepth = job.maxSimtDepth;
    snap.intervalSeries = job.intervalSeries;
    snap.grids = job.grids;
    return snap;
}

void
JobService::noteQueueDepthLocked()
{
    queueDepth_ = queue_.depth();
    maxQueueDepth_ = std::max(maxQueueDepth_, queueDepth_);
}

void
JobService::eventLocked(JobRecord &job, const char *event,
                        Json::Object fields)
{
    if (!evlog_)
        return;
    job.lastEventSeq =
        evlog_->emitJob(event, job.id, job.lastEventSeq,
                        std::move(fields));
}

Cycle
JobService::traceNowUs() const
{
    return Cycle(std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - started_)
                     .count());
}

void
JobService::traceWorkerBegin(unsigned worker, const std::string &name)
{
    std::lock_guard<std::mutex> lk(traceMu_);
    if (jobTrace_) {
        jobTrace_->begin(kTraceWorkersPid, worker, traceNowUs(), name,
                         "worker");
    }
}

void
JobService::traceWorkerEnd(unsigned worker)
{
    std::lock_guard<std::mutex> lk(traceMu_);
    if (jobTrace_)
        jobTrace_->end(kTraceWorkersPid, worker, traceNowUs());
}

void
JobService::traceJobBegin(JobId id, const char *phase)
{
    std::lock_guard<std::mutex> lk(traceMu_);
    if (jobTrace_) {
        jobTrace_->begin(kTraceJobsPid, std::uint32_t(id), traceNowUs(),
                         phase, "job");
    }
}

void
JobService::traceJobEnd(JobId id)
{
    std::lock_guard<std::mutex> lk(traceMu_);
    if (jobTrace_)
        jobTrace_->end(kTraceJobsPid, std::uint32_t(id), traceNowUs());
}

void
JobService::traceJobInstant(JobId id, const std::string &name)
{
    std::lock_guard<std::mutex> lk(traceMu_);
    if (jobTrace_) {
        jobTrace_->instant(kTraceJobsPid, std::uint32_t(id),
                           traceNowUs(), name, "job");
    }
}

void
JobService::traceJobThread(const JobRecord &job)
{
    std::lock_guard<std::mutex> lk(traceMu_);
    if (jobTrace_) {
        jobTrace_->threadName(kTraceJobsPid, std::uint32_t(job.id),
                              "job " + std::to_string(job.id) + " (" +
                                  job.spec.workload + ")");
    }
}

std::string
JobService::metricsText() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ostringstream os;
    telemetry::writePrometheus(os, registry_);
    return os.str();
}

Json
JobService::status() const
{
    std::lock_guard<std::mutex> lk(mu_);
    const double uptime = secondsSince(started_);

    Json::Object queue;
    queue["depth"] = Json(queueDepth_);
    queue["limit"] = Json(std::uint64_t(config_.queueLimit));
    queue["max_depth"] = Json(maxQueueDepth_);

    Json::Object counts;
    counts["submitted"] = Json(submitted_.value());
    counts["completed"] = Json(completed_.value());
    counts["failed"] = Json(failed_.value());
    counts["cancelled"] = Json(cancelled_.value());
    counts["rejected_queue_full"] = Json(rejectedFull_.value());
    counts["running"] = Json(runningJobs_);
    counts["parked"] = Json(parkedJobs_);

    Json::Object wait;
    wait["count"] = Json(waitSeconds_.count());
    wait["mean"] = Json(waitSeconds_.mean());
    wait["max"] = Json(waitSeconds_.maxValue());

    Json::Array jobs;
    for (const auto &[id, rec] : jobs_) {
        Json::Object j;
        j["job"] = Json(id);
        j["workload"] = Json(rec->spec.workload);
        j["priority"] = Json(toString(rec->priority));
        j["state"] = Json(toString(rec->state));
        j["preemptions"] = Json(rec->preemptions);
        j["retries"] = Json(rec->retries);
        j["wait_seconds"] = Json(rec->waitSeconds);
        j["wall_seconds"] = Json(rec->wallSeconds);
        if (rec->state == JobState::Done && rec->wallSeconds > 0.0) {
            j["kcycles_per_sec"] = Json(double(rec->stats.cycles) /
                                        rec->wallSeconds / 1e3);
        }
        const std::vector<std::string> grid_names =
            rec->spec.gridWorkloads();
        if (grid_names.size() > 1) {
            // One row per resident grid: name + priority always, the
            // per-grid counters once the job is done.
            j["share_policy"] = Json(toString(rec->spec.sharePolicy));
            Json::Array grids;
            for (std::size_t g = 0; g < grid_names.size(); ++g) {
                Json::Object row;
                row["grid"] = Json(std::uint64_t(g));
                row["kernel"] = Json(grid_names[g]);
                row["priority"] = Json(std::uint64_t(g));
                if (g < rec->grids.size()) {
                    const KernelStats &s = rec->grids[g].stats;
                    row["ipc"] = Json(s.ipc);
                    row["warp_instructions"] = Json(s.warpInstructions);
                    row["ctas_completed"] = Json(s.ctasCompleted);
                }
                grids.push_back(Json(std::move(row)));
            }
            j["grids"] = Json(std::move(grids));
        }
        jobs.push_back(Json(std::move(j)));
    }

    Json::Object o;
    o["ok"] = Json(true);
    o["op"] = Json("status");
    o["uptime_seconds"] = Json(uptime);
    o["workers"] = Json(unsigned(config_.workers));
    o["preempt_every"] = Json(std::uint64_t(config_.preemptEvery));
    o["queue"] = Json(std::move(queue));
    o["jobs"] = Json(std::move(counts));
    o["preemptions"] = Json(preemptions_.value());
    o["retries"] = Json(retries_.value());
    o["wait_seconds"] = Json(std::move(wait));
    o["busy_seconds"] = Json(busySeconds_);
    o["worker_utilization"] =
        Json(uptime > 0.0 ? busySeconds_ / (uptime * config_.workers)
                          : 0.0);
    o["job_list"] = Json(std::move(jobs));
    return Json(std::move(o));
}

Json
JobService::statsJsonSection() const
{
    Json status_obj = status();
    Json::Object o = status_obj.asObject();
    o.erase("ok");
    o.erase("op");
    return Json(std::move(o));
}

std::vector<RunRecord>
JobService::completedRuns() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<RunRecord> runs;
    for (const auto &[id, rec] : jobs_) {
        if (rec->state != JobState::Done)
            continue;
        RunRecord run;
        run.workload = rec->spec.workload;
        const auto names = rec->spec.gridWorkloads();
        if (names.size() > 1) {
            // Concurrent job: label the run like the bench co-runs do
            // ("vecadd+matmul") and record the policy.
            run.workload = names.front();
            for (std::size_t g = 1; g < names.size(); ++g)
                run.workload += "+" + names[g];
            run.sharePolicy = toString(rec->spec.sharePolicy);
        }
        run.scale = rec->spec.scale;
        run.config = rec->spec.config;
        run.verified = rec->verified;
        run.wallSeconds = rec->wallSeconds;
        run.maxSimtDepth = rec->maxSimtDepth;
        run.stats = rec->stats;
        run.intervalSeries = rec->intervalSeries;
        run.grids = rec->grids;
        runs.push_back(std::move(run));
    }
    return runs;
}

} // namespace vtsim::service
