/**
 * @file
 * The vtsim-coord coordinator: federates N vtsimd daemons behind one
 * NDJSON submit endpoint (docs/ARCHITECTURE.md "Distributed fabric").
 *
 * Daemons join by dialing in and sending "register" (name, dial-back
 * address, worker count), then heartbeat their load. Clients submit
 * through the coordinator exactly as they would to a single daemon;
 * job ids handed out here are fabric-global, and wait/query/status
 * resolve against the coordinator's view.
 *
 * Scheduling, all on one maintenance thread so it needs no RPC-level
 * locking:
 *
 *  - Admission (handler threads): per-tenant token-bucket rate
 *    limiting and in-flight fair-share quotas, plus a total-backlog
 *    bound. Over-limit submits are rejected with a retry_after_ms
 *    backpressure hint instead of queueing unboundedly.
 *  - Dispatch: pending jobs go to daemons round-robin across tenants
 *    (fair share), each to the node chosen by affinity hint, then
 *    workload locality (last node that ran the same workload), then
 *    least load per worker.
 *  - Work stealing: when a daemon sits idle while another's queue is
 *    deep, a waiting job is yanked from the deep daemon and
 *    resubmitted to the idle one. A *parked* job migrates: its
 *    vtsim-ckpt-v1 image is shipped chunk by chunk over the transport
 *    and the job resumes on the idle daemon bit-identically.
 *  - Node loss: a daemon that misses heartbeats long enough is marked
 *    dead and its in-flight jobs are re-dispatched from scratch —
 *    deterministic simulation makes the rerun's results identical.
 */

#ifndef VTSIM_FABRIC_COORDINATOR_HH
#define VTSIM_FABRIC_COORDINATOR_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fabric/line_server.hh"
#include "service/client.hh"
#include "service/event_log.hh"
#include "service/json.hh"
#include "stats/stats.hh"
#include "telemetry/stat_registry.hh"

namespace vtsim::fabric {

struct CoordinatorConfig
{
    /** Client + daemon endpoint (one listener serves both). */
    HostPort listen;
    std::string authToken;
    /** Coordinator lifecycle event log (vtsim-evlog-v1); empty =
     *  disabled. */
    std::string eventLogPath;
    /** Token-bucket refill per tenant in submits/second; 0 disables
     *  rate limiting. */
    double tenantRate = 0.0;
    /** Token-bucket burst capacity per tenant. */
    double tenantBurst = 8.0;
    /** Per-tenant in-flight (pending + dispatched) fair-share quota;
     *  0 = unlimited. */
    std::size_t tenantQuota = 64;
    /** Total pending-job backlog bound — queue-depth-driven
     *  backpressure starts here. */
    std::size_t maxBacklog = 256;
    /** A node missing heartbeats this long is declared lost. */
    int heartbeatTimeoutMs = 3000;
    /** Maintenance cadence (dispatch/steal/poll). */
    int maintenanceIntervalMs = 25;
    /** How long shutdown() waits for dispatched jobs to drain. */
    int drainTimeoutMs = 300000;
};

class Coordinator
{
  public:
    explicit Coordinator(CoordinatorConfig config);

    /** Stops the maintenance thread (as shutdown(), minus the drain). */
    ~Coordinator();

    /** Bind the listener and spawn the maintenance thread. */
    void start();

    /** Accept-and-serve until requestStop() (a client's shutdown op). */
    void serve();

    /** Ask serve() to return. Safe from signal handlers. */
    void requestStop();

    /**
     * Drain: stop admitting, keep dispatching/polling until every
     * admitted job is terminal (or drainTimeoutMs passes), then retire
     * the maintenance thread. Idempotent.
     */
    void shutdown();

    /** After start(): the TCP port actually bound. */
    std::uint16_t boundPort() const { return server_.boundTcpPort(); }

    /** The status-op reply body (fleet + tenants + jobs). */
    service::Json statusJson() const;

    /** The "fabric" section of the coordinator stats JSON. */
    service::Json statsJsonSection() const;

    /** The fabric StatRegistry in Prometheus text format. */
    std::string metricsText() const;

    // Counter peeks for tests and the fabric-smoke gate. The
    // maintenance thread bumps the counters under mu_, so read them
    // under it too.
    std::uint64_t dispatches() const { return peek(dispatches_); }
    std::uint64_t steals() const { return peek(steals_); }
    std::uint64_t migrations() const { return peek(migrations_); }
    std::uint64_t throttles() const { return peek(throttles_); }

  private:
    struct Node
    {
        std::string name;
        HostPort addr;
        unsigned workers = 0;
        std::uint64_t queueDepth = 0;
        std::uint64_t running = 0;
        std::uint64_t parked = 0;
        std::chrono::steady_clock::time_point lastBeat;
        bool alive = false;
        /** Dispatches since the last heartbeat — a load estimate for
         *  placement decisions between (lagging) heartbeats. */
        std::uint64_t sentSinceBeat = 0;
        std::uint64_t stealsIn = 0, stealsOut = 0;
        std::uint64_t migrationsIn = 0, migrationsOut = 0;
    };

    struct Tenant
    {
        double tokens = 0.0;
        bool seeded = false;
        std::chrono::steady_clock::time_point lastRefill;
        std::size_t inFlight = 0;
        std::uint64_t submitted = 0;
        std::uint64_t throttled = 0;
    };

    struct FabricJob
    {
        std::uint64_t gid = 0;
        std::uint64_t seq = 0; ///< Admission order (FIFO per tenant).
        std::string tenant;
        std::string affinity;  ///< Preferred node name ("" = none).
        std::string workload;
        std::string priority;  ///< "low"|"normal"|"high" (display).
        service::Json::Object submitBody; ///< Forwarded verbatim.
        enum class State { Pending, Dispatched, Terminal };
        State state = State::Pending;
        std::string node;          ///< Dispatched/terminal location.
        std::uint64_t localId = 0; ///< Job id on that node.
        std::string localState;    ///< Last polled daemon-side state.
        service::Json result;      ///< Terminal snapshot (rewritten).
        std::uint64_t lastEventSeq = 0;
    };

    bool handleLine(int fd, const std::string &line);
    bool handleSubmit(int fd, const service::Json &doc,
                      const std::string &line);
    bool handleRegister(int fd, const service::Json &doc);
    bool handleHeartbeat(int fd, const service::Json &doc);
    bool handleWait(int fd, const service::Json &doc);
    bool handleQuery(int fd, const service::Json &doc);

    void maintenanceLoop();
    void checkNodeTimeouts();
    void dispatchRound();
    void stealRound();
    void pollRound();

    /** Cached connection to @p node (maintenance thread only);
     *  reconnects once on demand, nullptr when unreachable. */
    service::Client *nodeClient(const std::string &name);
    void dropNodeClient(const std::string &name);
    /** One request to @p node, nullptr Json on any transport error. */
    std::unique_ptr<service::Json>
    nodeRequest(const std::string &node, const service::Json &req);

    service::Json queryLocked(const FabricJob &job) const;
    void eventJobLocked(FabricJob &job, const char *event,
                        service::Json::Object fields = {});
    void noteGaugesLocked();
    /** @p c read under mu_. */
    std::uint64_t
    peek(const Counter &c) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return c.value();
    }

    CoordinatorConfig config_;
    LineServer server_;

    mutable std::mutex mu_;
    std::condition_variable doneCv_;  ///< wait() blocks here.
    std::condition_variable maintCv_; ///< Maintenance pacing/stop.
    bool draining_ = false;
    bool stopMaintenance_ = false;

    std::map<std::string, Node> nodes_;
    std::map<std::string, Tenant> tenants_;
    std::map<std::uint64_t, std::unique_ptr<FabricJob>> jobs_;
    std::uint64_t nextGid_ = 1;
    std::uint64_t nextSeq_ = 1;
    /** Fair-share rotation marker: dispatch resumes after this
     *  tenant. */
    std::string lastServedTenant_;
    /** Workload-locality hint: last node a workload was placed on. */
    std::map<std::string, std::string> lastNodeForWorkload_;

    std::chrono::steady_clock::time_point started_;

    // --- Telemetry (StatGroup "fabric") ------------------------------
    Counter submitted_;
    Counter dispatches_;
    Counter steals_;
    Counter migrations_;
    Counter throttles_;
    Counter rejectedBusy_;
    Counter nodeLosses_;
    Counter completed_;
    Counter failed_;
    std::uint64_t nodesAlive_ = 0;    ///< Gauge.
    std::uint64_t jobsPending_ = 0;   ///< Gauge.
    std::uint64_t jobsDispatched_ = 0; ///< Gauge.
    StatGroup statsGroup_{"fabric"};
    telemetry::StatRegistry registry_;

    std::unique_ptr<service::EventLog> evlog_;

    /** Maintenance-thread-only state: cached daemon connections keyed
     *  by node name, with the address they were dialed at. */
    struct CachedClient
    {
        std::string addr;
        std::unique_ptr<service::Client> client;
    };
    std::map<std::string, CachedClient> clients_;

    std::thread maintenance_;
    std::once_flag shutdownOnce_;
};

} // namespace vtsim::fabric

#endif // VTSIM_FABRIC_COORDINATOR_HH
