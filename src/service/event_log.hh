/**
 * @file
 * Structured job-lifecycle event log (schema "vtsim-evlog-v1").
 *
 * One JSON object per line, appended and flushed atomically under an
 * internal mutex, so the log is a crash-tolerant stream: a daemon
 * killed mid-write loses at most the final partial line, and a reader
 * that tolerates one truncated tail line (scripts/validate_evlog.py
 * does) sees every completed event.
 *
 * Every line carries:
 *
 *   v       "vtsim-evlog-v1"
 *   seq     per-daemon sequence number, starts at 1, increments by 1
 *           in file order (the write lock covers allocation AND the
 *           write, so file order == seq order)
 *   t_ms    milliseconds since the log was opened (steady clock,
 *           microsecond resolution) — differences between events are
 *           exact durations
 *   event   the event kind (see below)
 *
 * Job-scoped events additionally carry:
 *
 *   job     the job id
 *   parent  seq of this job's previous event (0 for its first), so a
 *           job's full history is a filterable linked chain
 *
 * Event kinds and their extra fields (service.cc and daemon.cc are the
 * writers; scripts/validate_evlog.py mirrors this table check for
 * check):
 *
 *   log_open       pid
 *   service_start  workers, queue_limit, preempt_every
 *   listening      socket                  (daemon bound its socket)
 *   accept_error   error                   (transient accept(2) fail)
 *   submit         workload, scale, priority       (admission attempt)
 *   admit          job, workload, scale, priority  (parent = submit)
 *   reject         reason                          (parent = submit)
 *   start          job, worker, attempt, wait_ms   (fresh/retry start)
 *   resume         job, worker, wait_ms            (pop of parked job)
 *   checkpoint     job, bytes, write_ms            (parked image)
 *   preempt        job, by_priority        (preemption signalled)
 *   park           job, slice_ms           (run slice ended preempted)
 *   crash          job, attempt, reason
 *   retry          job, from ("checkpoint"|"scratch")
 *   finish         job, cycles, wall_ms, verified
 *   fail           job, reason
 *   cancel         job
 *   drain          (shutdown began)
 *   service_stop   (all workers joined)
 */

#ifndef VTSIM_SERVICE_EVENT_LOG_HH
#define VTSIM_SERVICE_EVENT_LOG_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "service/json.hh"

namespace vtsim::service {

class EventLog
{
  public:
    /** Opens (truncates) @p path and emits log_open; throws FatalError
     * when the file cannot be created. */
    explicit EventLog(const std::string &path);

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /**
     * Append one event line; @p fields must not contain the reserved
     * keys (v, seq, t_ms, event). Returns the event's seq.
     */
    std::uint64_t emit(const char *event, Json::Object fields = {});

    /**
     * Append a job-scoped event: emit() with "job" and "parent" added.
     * @p parent is the seq returned by the job's previous event (0 for
     * the first).
     */
    std::uint64_t emitJob(const char *event, std::uint64_t job,
                          std::uint64_t parent, Json::Object fields = {});

    /** Milliseconds since the log was opened (what t_ms measures). */
    double elapsedMs() const;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::chrono::steady_clock::time_point opened_;
    std::mutex mu_;
    std::ofstream os_;
    std::uint64_t nextSeq_ = 1;
};

} // namespace vtsim::service

#endif // VTSIM_SERVICE_EVENT_LOG_HH
