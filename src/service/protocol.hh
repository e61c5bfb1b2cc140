/**
 * @file
 * The vtsimd wire protocol: newline-delimited JSON over a Unix-domain
 * socket. Each request is one JSON object on one line; each reply is
 * one JSON object on one line. Requests larger than the daemon's line
 * cap are rejected without parsing, and an op not listed below draws
 * an "unknown op" error. Access control is the socket file's
 * permissions.
 *
 * Ops:
 *   {"op":"submit","workload":W,...}   -> {"ok":true,"job":N} |
 *                                         {"ok":false,"rejected":"queue_full"}
 *   {"op":"wait","job":N}              -> terminal job snapshot (blocks)
 *   {"op":"query","job":N}             -> current job snapshot
 *   {"op":"status"}                    -> service telemetry snapshot
 *   {"op":"cancel","job":N}            -> {"ok":true} (queued/parked only)
 *   {"op":"ping"}                      -> {"ok":true,"op":"ping"}
 *   {"op":"metrics"}                   -> {"ok":true,"body":<Prometheus text>}
 *   {"op":"shutdown"}                  -> {"ok":true,"state":"draining"}
 *
 * Submit fields: workload (required), scale, priority
 * ("low"|"normal"|"high"), config (object of GpuConfig overrides — see
 * applyConfigOverrides), stats_interval, checkpoint_every, inject_fail
 * (test hook). Malformed requests raise ProtocolError/JsonError, which
 * the daemon converts into {"ok":false,"error":...} replies — a bad
 * request must never take the service down.
 */

#ifndef VTSIM_SERVICE_PROTOCOL_HH
#define VTSIM_SERVICE_PROTOCOL_HH

#include <string>

#include "service/job.hh"
#include "service/json.hh"

namespace vtsim::service {

/** A syntactically valid JSON request that violates the protocol. */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &what)
        : std::runtime_error(what)
    {}
};

struct Request
{
    enum class Op
    {
        Submit, Wait, Query, Status, Cancel, Ping, Metrics, Shutdown
    };

    Op op = Op::Ping;
    JobSpec spec;                          ///< Submit only.
    Priority priority = Priority::Normal;  ///< Submit only.
    JobId job = 0;                         ///< Wait/Query/Cancel.
};

/** Parse one request line. Throws JsonError or ProtocolError. */
Request parseRequest(const std::string &line);

/**
 * Apply a submit request's "config" object onto @p cfg. Accepted keys
 * (a deliberate allowlist — the service exposes experiment knobs, not
 * raw machine internals): num_sms, num_mem_partitions, vt_enabled,
 * vt_max_virtual_ctas_per_sm, vt_swap_latency, throttle_enabled,
 * scheduler ("lrr"|"gto"|"two-level"), l1_bypass_global_loads,
 * sched_limit_multiplier, fast_forward, max_cycles. Unknown keys or
 * out-of-range values throw ProtocolError.
 */
void applyConfigOverrides(GpuConfig &cfg, const Json &overrides);

/** "low"/"normal"/"high" -> Priority; throws ProtocolError. */
Priority parsePriority(const std::string &name);

/** Full KernelStats as a JSON object (the stats-json field names). */
Json kernelStatsToJson(const KernelStats &stats);

/** Inverse of kernelStatsToJson; throws on missing fields. */
KernelStats kernelStatsFromJson(const Json &json);

/** The terminal/current state of @p snap as a reply object. */
Json snapshotToJson(const JobSnapshot &snap);

/** {"ok":false,"error":<message>} on one line. */
std::string errorReply(const std::string &message);

} // namespace vtsim::service

#endif // VTSIM_SERVICE_PROTOCOL_HH
