/**
 * @file
 * vtsim-submit — client for the vtsimd job service.
 *
 * Usage:
 *   vtsim-submit <workload>|fig3 [options]
 *   vtsim-submit --status | --ping | --metrics | --shutdown [--socket PATH]
 *
 *   <workload>            one benchmark by name, or the literal `fig3`
 *                         to expand the FIG-3 batch (every benchmark,
 *                         baseline and VT configuration, spec order)
 *   --benchmarks a,b,c    restrict the fig3 expansion to these names
 *   --socket PATH         vtsimd socket (default ./vtsimd.sock)
 *   --priority P          low | normal | high (default normal)
 *   --scale N             problem scale
 *   --vt | --sms N | --vtmax N | --swap-latency N | --scheduler P
 *   --bypass-l1 | --throttle | --fast-forward
 *                         GpuConfig overrides, as in run_benchmark
 *   --stats-interval N    per-job interval series
 *   --checkpoint-every N  per-job preemption/checkpoint cadence
 *   --sim-threads N       shard each job's simulation across N threads
 *                         (bit-identical results; the daemon rejects
 *                         requests beyond its --max-sim-threads)
 *   --kernels a,b         submit one concurrent job co-running these
 *                         workloads (instead of <workload>); results
 *                         include one per-grid stats line per kernel
 *   --share-policy P      spatial | vt-fill | preempt CTA-slot sharing
 *                         for a --kernels job (default vt-fill)
 *   --inject-fail N       test hook: fail the first N attempts
 *   --no-wait             submit and print job ids without waiting
 *   --local               do not contact a daemon: run the exact same
 *                         submission batch in-process through the
 *                         sequential batch runner
 *   --metrics             print the daemon's service registry in
 *                         Prometheus text format (the "metrics" op
 *                         body) to stdout and exit
 *
 * Job results are printed to stdout as one deterministic line per
 * submission, in submission order:
 *   <workload> scale=<n> vt=<on|off> stats=<kernel-stats JSON>
 * The line is built from the same KernelStats fields in both service
 * and --local modes, so `diff` between the two proves bit-identity.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "parallel_runner.hh"
#include "service/client.hh"
#include "service/protocol.hh"

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: vtsim-submit <workload>|fig3 [--benchmarks "
                 "a,b,c] [--socket PATH]\n"
                 "         [--priority low|normal|high] [--scale N] "
                 "[--vt] [--sms N]\n"
                 "         [--vtmax N] [--swap-latency N] [--scheduler "
                 "lrr|gto|two-level]\n"
                 "         [--bypass-l1] [--throttle] [--fast-forward]\n"
                 "         [--stats-interval N] [--checkpoint-every N] "
                 "[--inject-fail N]\n"
                 "         [--sim-threads N] [--kernels a,b "
                 "[--share-policy spatial|vt-fill|preempt]]\n"
                 "         [--no-wait] [--local]\n"
                 "       vtsim-submit --status | --ping | --metrics | "
                 "--shutdown [--socket PATH]\n");
    std::exit(2);
}

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
try {
    using namespace vtsim;
    using namespace vtsim::service;

    std::string socket_path = "vtsimd.sock";
    std::string target;
    std::string priority = "normal";
    std::vector<std::string> benchmarks;
    Json::Object config; // GpuConfig overrides, allowlisted keys.
    long scale = -1;
    long stats_interval = -1;
    long checkpoint_every = -1;
    long inject_fail = -1;
    long sim_threads = -1;
    std::vector<std::string> kernels;
    std::string share_policy;
    bool no_wait = false;
    bool local = false;
    enum class Mode { Submit, Status, Ping, Metrics, Shutdown } mode =
        Mode::Submit;

    std::vector<std::string> args(argv + 1, argv + argc);
    auto next_value = [&args](std::size_t &i) -> std::string {
        if (++i >= args.size())
            usage();
        return args[i];
    };
    auto next_count = [&next_value](std::size_t &i,
                                    const char *what) -> long {
        const std::string v = next_value(i);
        char *end = nullptr;
        const long n = std::strtol(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0' || n < 0) {
            std::fprintf(stderr, "vtsim-submit: invalid %s '%s'\n",
                         what, v.c_str());
            std::exit(2);
        }
        return n;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--socket")
            socket_path = next_value(i);
        else if (a == "--status")
            mode = Mode::Status;
        else if (a == "--ping")
            mode = Mode::Ping;
        else if (a == "--metrics")
            mode = Mode::Metrics;
        else if (a == "--shutdown")
            mode = Mode::Shutdown;
        else if (a == "--priority")
            priority = next_value(i);
        else if (a == "--benchmarks")
            benchmarks = splitCsv(next_value(i));
        else if (a == "--scale")
            scale = next_count(i, "--scale");
        else if (a == "--vt")
            config["vt_enabled"] = Json(true);
        else if (a == "--sms")
            config["num_sms"] = Json(std::int64_t(next_count(i, "--sms")));
        else if (a == "--vtmax")
            config["vt_max_virtual_ctas_per_sm"] =
                Json(std::int64_t(next_count(i, "--vtmax")));
        else if (a == "--swap-latency")
            config["vt_swap_latency"] =
                Json(std::int64_t(next_count(i, "--swap-latency")));
        else if (a == "--scheduler")
            config["scheduler"] = Json(next_value(i));
        else if (a == "--bypass-l1")
            config["l1_bypass_global_loads"] = Json(true);
        else if (a == "--throttle")
            config["throttle_enabled"] = Json(true);
        else if (a == "--fast-forward")
            config["fast_forward"] = Json(true);
        else if (a == "--stats-interval")
            stats_interval = next_count(i, "--stats-interval");
        else if (a == "--checkpoint-every")
            checkpoint_every = next_count(i, "--checkpoint-every");
        else if (a == "--inject-fail")
            inject_fail = next_count(i, "--inject-fail");
        else if (a == "--sim-threads")
            sim_threads = next_count(i, "--sim-threads");
        else if (a == "--kernels")
            kernels = splitCsv(next_value(i));
        else if (a == "--share-policy")
            share_policy = next_value(i);
        else if (a == "--no-wait")
            no_wait = true;
        else if (a == "--local")
            local = true;
        else if (!a.empty() && a[0] != '-' && target.empty())
            target = a;
        else
            usage();
    }

    if (mode != Mode::Submit) {
        Client client(socket_path);
        Json::Object req;
        req["op"] = Json(mode == Mode::Status    ? "status"
                         : mode == Mode::Ping    ? "ping"
                         : mode == Mode::Metrics ? "metrics"
                                                 : "shutdown");
        const Json reply = client.request(Json(std::move(req)));
        const Json *ok = reply.find("ok");
        if (!ok || !ok->isBool() || !ok->asBool()) {
            std::fprintf(stderr, "vtsim-submit: %s failed: %s\n",
                         mode == Mode::Status    ? "status"
                         : mode == Mode::Ping    ? "ping"
                         : mode == Mode::Metrics ? "metrics"
                                                 : "shutdown",
                         reply.dump().c_str());
            return 1;
        }
        if (mode == Mode::Metrics) {
            // Unwrap the NDJSON framing: the body is multi-line
            // Prometheus text, ready for a scraper or a file.
            const Json *body = reply.find("body");
            if (!body || !body->isString()) {
                std::fprintf(stderr,
                             "vtsim-submit: metrics failed: %s\n",
                             reply.dump().c_str());
                return 1;
            }
            std::fputs(body->asString().c_str(), stdout);
            return 0;
        }
        std::printf("%s\n", reply.dump().c_str());
        return 0;
    }
    if (target.empty() == kernels.empty())
        usage(); // Exactly one of <workload> / --kernels.
    if (!kernels.empty() && local) {
        std::fprintf(stderr, "vtsim-submit: --local runs the "
                             "single-kernel batch runner; it does not "
                             "take --kernels\n");
        return 2;
    }

    // Build every submit request up front: both modes consume the
    // identical JSON, so the service run and the --local run start
    // from byte-identical GpuConfigs by construction.
    std::vector<std::string> submits;
    const auto make_submit = [&](const std::string &workload, bool vt) {
        Json::Object o;
        o["op"] = Json("submit");
        if (!kernels.empty()) {
            // One concurrent job: `kernels` replaces `workload`.
            Json::Array names;
            for (const auto &k : kernels)
                names.push_back(Json(k));
            o["kernels"] = Json(std::move(names));
            if (!share_policy.empty())
                o["share_policy"] = Json(share_policy);
        } else {
            o["workload"] = Json(workload);
        }
        o["priority"] = Json(priority);
        if (scale >= 0)
            o["scale"] = Json(std::int64_t(scale));
        Json::Object cfg = config;
        if (vt)
            cfg["vt_enabled"] = Json(true);
        if (!cfg.empty())
            o["config"] = Json(std::move(cfg));
        if (stats_interval >= 0)
            o["stats_interval"] = Json(std::int64_t(stats_interval));
        if (checkpoint_every >= 0)
            o["checkpoint_every"] = Json(std::int64_t(checkpoint_every));
        if (inject_fail >= 0)
            o["inject_fail"] = Json(std::int64_t(inject_fail));
        if (sim_threads >= 0)
            o["sim_threads"] = Json(std::int64_t(sim_threads));
        submits.push_back(Json(std::move(o)).dump());
    };
    if (!kernels.empty()) {
        make_submit("", false);
    } else if (target == "fig3") {
        auto names = benchmarkNames();
        if (!benchmarks.empty())
            names = benchmarks;
        // The FIG-3 spec order: per benchmark, baseline then VT.
        for (const auto &name : names) {
            make_submit(name, false);
            make_submit(name, true);
        }
    } else {
        make_submit(target, false);
    }

    const auto result_line = [](const JobSpec &spec,
                                const KernelStats &stats) {
        std::printf("%s scale=%u vt=%s stats=%s\n",
                    spec.workload.c_str(), spec.scale,
                    spec.config.vtEnabled ? "on" : "off",
                    kernelStatsToJson(stats).dump().c_str());
    };

    if (local) {
        // Replay through the sequential batch runner: the acceptance
        // oracle for service bit-identity.
        std::vector<bench::RunSpec> specs;
        std::vector<JobSpec> job_specs;
        for (const auto &line : submits) {
            const Request req = parseRequest(line);
            specs.push_back({req.spec.workload, req.spec.config,
                             req.spec.scale});
            job_specs.push_back(req.spec);
        }
        // The sharding request applies in the replay too — results are
        // bit-identical either way, it only changes wall clock.
        if (sim_threads > 0) {
            bench::TelemetryOptions telemetry;
            telemetry.simThreads = unsigned(sim_threads);
            bench::setTelemetryOptions(telemetry);
        }
        const auto results = bench::runAll(specs, 1);
        for (std::size_t i = 0; i < results.size(); ++i)
            result_line(job_specs[i], results[i].stats);
        return 0;
    }

    // One connection for the whole batch.
    Client client(socket_path);
    std::vector<JobId> ids;
    std::vector<JobSpec> job_specs;
    for (const auto &line : submits) {
        const Json reply = Json::parse(client.requestRaw(line));
        const Json *ok = reply.find("ok");
        if (!ok || !ok->isBool() || !ok->asBool()) {
            std::fprintf(stderr, "vtsim-submit: submit rejected: %s\n",
                         reply.dump().c_str());
            return 1;
        }
        ids.push_back(JobId(reply.find("job")->asInt()));
        job_specs.push_back(parseRequest(line).spec);
    }
    if (no_wait) {
        for (const JobId id : ids)
            std::printf("job %llu\n", (unsigned long long)id);
        return 0;
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Json::Object req;
        req["op"] = Json("wait");
        req["job"] = Json(ids[i]);
        const Json reply = client.request(Json(std::move(req)));
        const Json *state = reply.find("state");
        if (!state || !state->isString() ||
            state->asString() != "done") {
            std::fprintf(stderr, "vtsim-submit: job %llu: %s\n",
                         (unsigned long long)ids[i],
                         reply.dump().c_str());
            return 1;
        }
        result_line(job_specs[i],
                    kernelStatsFromJson(*reply.find("stats")));
        if (const Json *grids = reply.find("grids")) {
            for (const Json &g : grids->asArray()) {
                std::printf("  grid %s prio=%lld stats=%s\n",
                            g.find("kernel")->asString().c_str(),
                            (long long)g.find("priority")->asInt(),
                            g.find("stats")->dump().c_str());
            }
        }
    }
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "vtsim-submit: %s\n", e.what());
    return 1;
}
