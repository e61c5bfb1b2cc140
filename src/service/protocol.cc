#include "service/protocol.hh"

#include <limits>

namespace vtsim::service {

namespace {

std::uint64_t
requireUnsigned(const Json &v, const char *what, std::uint64_t max)
{
    std::int64_t raw;
    try {
        raw = v.asInt();
    } catch (const JsonError &) {
        throw ProtocolError(std::string(what) + " must be an integer");
    }
    if (raw < 0 || std::uint64_t(raw) > max) {
        throw ProtocolError(std::string(what) + " out of range [0, " +
                            std::to_string(max) + "]");
    }
    return std::uint64_t(raw);
}

bool
requireBool(const Json &v, const char *what)
{
    try {
        return v.asBool();
    } catch (const JsonError &) {
        throw ProtocolError(std::string(what) + " must be a boolean");
    }
}

} // namespace

std::string
toString(Priority p)
{
    switch (p) {
      case Priority::Low: return "low";
      case Priority::Normal: return "normal";
      case Priority::High: return "high";
    }
    return "?";
}

std::string
toString(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Parked: return "parked";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "?";
}

Priority
parsePriority(const std::string &name)
{
    if (name == "low")
        return Priority::Low;
    if (name == "normal")
        return Priority::Normal;
    if (name == "high")
        return Priority::High;
    throw ProtocolError("unknown priority '" + name +
                        "' (expected low|normal|high)");
}

void
applyConfigOverrides(GpuConfig &cfg, const Json &overrides)
{
    if (!overrides.isObject())
        throw ProtocolError("config must be an object");
    for (const auto &[key, value] : overrides.asObject()) {
        if (key == "num_sms") {
            cfg.numSms = requireUnsigned(value, "num_sms", 256);
        } else if (key == "num_mem_partitions") {
            cfg.numMemPartitions =
                requireUnsigned(value, "num_mem_partitions", 64);
        } else if (key == "vt_enabled") {
            cfg.vtEnabled = requireBool(value, "vt_enabled");
        } else if (key == "vt_max_virtual_ctas_per_sm") {
            cfg.vtMaxVirtualCtasPerSm = requireUnsigned(
                value, "vt_max_virtual_ctas_per_sm", 1024);
        } else if (key == "vt_swap_latency") {
            const auto lat =
                requireUnsigned(value, "vt_swap_latency", 1u << 20);
            cfg.vtSwapOutLatency = lat;
            cfg.vtSwapInLatency = lat;
        } else if (key == "throttle_enabled") {
            cfg.throttleEnabled = requireBool(value, "throttle_enabled");
        } else if (key == "scheduler") {
            std::string name;
            try {
                name = value.asString();
            } catch (const JsonError &) {
                throw ProtocolError("scheduler must be a string");
            }
            if (name == "lrr")
                cfg.schedulerPolicy = SchedulerPolicy::LooseRoundRobin;
            else if (name == "gto")
                cfg.schedulerPolicy = SchedulerPolicy::GreedyThenOldest;
            else if (name == "two-level")
                cfg.schedulerPolicy = SchedulerPolicy::TwoLevel;
            else
                throw ProtocolError("unknown scheduler '" + name + "'");
        } else if (key == "l1_bypass_global_loads") {
            cfg.l1BypassGlobalLoads =
                requireBool(value, "l1_bypass_global_loads");
        } else if (key == "sched_limit_multiplier") {
            cfg.schedLimitMultiplier =
                requireUnsigned(value, "sched_limit_multiplier", 64);
        } else if (key == "fast_forward") {
            cfg.fastForwardEnabled = requireBool(value, "fast_forward");
        } else if (key == "max_cycles") {
            cfg.maxCycles = requireUnsigned(
                value, "max_cycles",
                std::numeric_limits<std::int64_t>::max());
        } else {
            throw ProtocolError("unknown config key '" + key + "'");
        }
    }
}

Request
parseRequest(const std::string &line)
{
    const Json doc = Json::parse(line);
    if (!doc.isObject())
        throw ProtocolError("request must be a JSON object");
    const Json *op = doc.find("op");
    if (!op || !op->isString())
        throw ProtocolError("request needs a string \"op\"");

    Request req;
    const std::string &name = op->asString();
    if (name == "submit") {
        req.op = Request::Op::Submit;
        const Json *workload = doc.find("workload");
        const Json *kernels = doc.find("kernels");
        if (workload && kernels) {
            throw ProtocolError(
                "submit takes \"workload\" or \"kernels\", not both");
        }
        if (kernels) {
            if (!kernels->isArray() || kernels->asArray().empty())
                throw ProtocolError(
                    "kernels must be a non-empty array of workload names");
            for (const Json &k : kernels->asArray()) {
                if (!k.isString())
                    throw ProtocolError("kernels entries must be strings");
                req.spec.kernels.push_back(k.asString());
            }
            req.spec.workload = req.spec.kernels.front();
        } else if (workload && workload->isString()) {
            req.spec.workload = workload->asString();
        } else {
            throw ProtocolError("submit needs a string \"workload\" or "
                                "a \"kernels\" array");
        }
        if (const Json *policy = doc.find("share_policy")) {
            if (!policy->isString() ||
                !parseSharePolicy(policy->asString(),
                                  req.spec.sharePolicy)) {
                throw ProtocolError("share_policy must be \"spatial\", "
                                    "\"vt-fill\" or \"preempt\"");
            }
        }
        if (const Json *scale = doc.find("scale"))
            req.spec.scale = requireUnsigned(*scale, "scale", 64);
        if (const Json *prio = doc.find("priority")) {
            if (!prio->isString())
                throw ProtocolError("priority must be a string");
            req.priority = parsePriority(prio->asString());
        }
        if (const Json *cfg = doc.find("config"))
            applyConfigOverrides(req.spec.config, *cfg);
        if (const Json *interval = doc.find("stats_interval")) {
            req.spec.statsInterval = requireUnsigned(
                *interval, "stats_interval", 1ull << 40);
        }
        if (const Json *every = doc.find("checkpoint_every")) {
            req.spec.checkpointEvery = requireUnsigned(
                *every, "checkpoint_every", 1ull << 40);
        }
        if (const Json *inject = doc.find("inject_fail"))
            req.spec.injectFail = requireUnsigned(*inject, "inject_fail", 8);
        if (const Json *threads = doc.find("sim_threads")) {
            // Protocol-level sanity bound only; the service enforces
            // its own (configurable, usually tighter) maxSimThreads at
            // admission.
            req.spec.simThreads = static_cast<unsigned>(
                requireUnsigned(*threads, "sim_threads", 256));
        }
        if (const Json *trace = doc.find("record_trace")) {
            if (!trace->isString() || trace->asString().empty())
                throw ProtocolError(
                    "record_trace must be a non-empty string path");
            req.spec.recordTrace = trace->asString();
        }
    } else if (name == "wait" || name == "query" || name == "cancel") {
        req.op = name == "wait"    ? Request::Op::Wait
                 : name == "query" ? Request::Op::Query
                                   : Request::Op::Cancel;
        const Json *job = doc.find("job");
        if (!job)
            throw ProtocolError(name + " needs a \"job\" id");
        req.job = requireUnsigned(
            *job, "job", std::numeric_limits<std::int64_t>::max());
    } else if (name == "status") {
        req.op = Request::Op::Status;
    } else if (name == "ping") {
        req.op = Request::Op::Ping;
    } else if (name == "metrics") {
        req.op = Request::Op::Metrics;
    } else if (name == "shutdown") {
        req.op = Request::Op::Shutdown;
    } else {
        throw ProtocolError("unknown op '" + name + "'");
    }
    return req;
}

Json
kernelStatsToJson(const KernelStats &stats)
{
    Json::Object stalls;
    stalls["issued"] = Json(stats.stalls.issued);
    stalls["mem"] = Json(stats.stalls.memStall);
    stalls["short"] = Json(stats.stalls.shortStall);
    stalls["barrier"] = Json(stats.stalls.barrierStall);
    stalls["swap"] = Json(stats.stalls.swapStall);
    stalls["idle"] = Json(stats.stalls.idle);

    Json::Object o;
    o["cycles"] = Json(stats.cycles);
    o["ipc"] = Json(stats.ipc);
    o["warp_instructions"] = Json(stats.warpInstructions);
    o["thread_instructions"] = Json(stats.threadInstructions);
    o["ctas_completed"] = Json(stats.ctasCompleted);
    o["l1_hits"] = Json(stats.l1Hits);
    o["l1_misses"] = Json(stats.l1Misses);
    o["l2_hits"] = Json(stats.l2Hits);
    o["l2_misses"] = Json(stats.l2Misses);
    o["dram_row_hits"] = Json(stats.dramRowHits);
    o["dram_row_misses"] = Json(stats.dramRowMisses);
    o["dram_bytes"] = Json(stats.dramBytes);
    o["swap_outs"] = Json(stats.swapOuts);
    o["swap_ins"] = Json(stats.swapIns);
    o["stalls"] = Json(std::move(stalls));
    return Json(std::move(o));
}

KernelStats
kernelStatsFromJson(const Json &json)
{
    const auto field = [&json](const char *name) -> const Json & {
        const Json *v = json.find(name);
        if (!v)
            throw ProtocolError(std::string("stats reply missing '") +
                                name + "'");
        return *v;
    };
    KernelStats s;
    s.cycles = field("cycles").asInt();
    s.ipc = field("ipc").asDouble();
    s.warpInstructions = field("warp_instructions").asInt();
    s.threadInstructions = field("thread_instructions").asInt();
    s.ctasCompleted = field("ctas_completed").asInt();
    s.l1Hits = field("l1_hits").asInt();
    s.l1Misses = field("l1_misses").asInt();
    s.l2Hits = field("l2_hits").asInt();
    s.l2Misses = field("l2_misses").asInt();
    s.dramRowHits = field("dram_row_hits").asInt();
    s.dramRowMisses = field("dram_row_misses").asInt();
    s.dramBytes = field("dram_bytes").asInt();
    s.swapOuts = field("swap_outs").asInt();
    s.swapIns = field("swap_ins").asInt();
    const Json &stalls = field("stalls");
    const auto stall = [&stalls](const char *name) -> std::uint64_t {
        const Json *v = stalls.find(name);
        if (!v)
            throw ProtocolError(std::string("stalls reply missing '") +
                                name + "'");
        return v->asInt();
    };
    s.stalls.issued = stall("issued");
    s.stalls.memStall = stall("mem");
    s.stalls.shortStall = stall("short");
    s.stalls.barrierStall = stall("barrier");
    s.stalls.swapStall = stall("swap");
    s.stalls.idle = stall("idle");
    return s;
}

Json
snapshotToJson(const JobSnapshot &snap)
{
    Json::Object o;
    o["ok"] = Json(true);
    o["job"] = Json(snap.id);
    o["state"] = Json(toString(snap.state));
    o["priority"] = Json(toString(snap.priority));
    o["workload"] = Json(snap.workload);
    o["scale"] = Json(snap.scale);
    if (snap.simThreads > 1)
        o["sim_threads"] = Json(snap.simThreads);
    o["preemptions"] = Json(snap.preemptions);
    o["retries"] = Json(snap.retries);
    o["wait_seconds"] = Json(snap.waitSeconds);
    o["wall_seconds"] = Json(snap.wallSeconds);
    if (!snap.failureReason.empty())
        o["reason"] = Json(snap.failureReason);
    if (snap.state == JobState::Done) {
        o["verified"] = Json(snap.verified);
        o["max_simt_depth"] = Json(snap.maxSimtDepth);
        o["stats"] = kernelStatsToJson(snap.stats);
        if (!snap.grids.empty()) {
            Json::Array grids;
            for (const GridStats &gs : snap.grids) {
                Json::Object g;
                g["kernel"] = Json(gs.kernelName);
                g["priority"] = Json(gs.priority);
                g["stats"] = kernelStatsToJson(gs.stats);
                grids.push_back(Json(std::move(g)));
            }
            o["grids"] = Json(std::move(grids));
        }
    }
    return Json(std::move(o));
}

std::string
errorReply(const std::string &message)
{
    Json::Object o;
    o["ok"] = Json(false);
    o["error"] = Json(message);
    return Json(std::move(o)).dump();
}

} // namespace vtsim::service
