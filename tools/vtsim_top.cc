/**
 * @file
 * vtsim-top — live view of a running vtsimd: polls the "status" and
 * "metrics" ops and (optionally) tails the vtsim-evlog-v1 event log,
 * rendering a queue/worker/job table plus the latest lifecycle events.
 *
 * Usage:
 *   vtsim-top [--socket PATH] [--evlog PATH] [--interval MS] [--once]
 *
 *   --socket PATH   vtsimd socket (default ./vtsimd.sock)
 *   --evlog PATH    tail this event log's most recent job events
 *   --interval MS   refresh period (default 1000)
 *   --once          render a single frame without clearing the screen
 *                   and exit (scripting/CI mode)
 *
 * The latency block comes from the Prometheus metrics body (the same
 * numbers a scraper sees); everything else from the status snapshot.
 * A truncated final event-log line (daemon killed mid-write) is
 * tolerated and skipped, like scripts/validate_evlog.py does.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/json.hh"

namespace {

using vtsim::service::Client;
using vtsim::service::Json;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: vtsim-top [--socket PATH] [--evlog PATH] "
                 "[--interval MS] [--once]\n");
    std::exit(2);
}

/** Parse the Prometheus text body into name -> value (label'd series,
 *  e.g. histogram buckets, keep the label text in the key). */
std::map<std::string, double>
parseMetrics(const std::string &body)
{
    std::map<std::string, double> out;
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        out[line.substr(0, space)] =
            std::strtod(line.c_str() + space + 1, nullptr);
    }
    return out;
}

double
metric(const std::map<std::string, double> &m, const std::string &name)
{
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
}

/** The last @p count parseable event-log lines (truncated tail
 *  skipped). */
std::vector<Json>
tailEvents(const std::string &path, std::size_t count)
{
    std::ifstream is(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        lines.push_back(line);
        if (lines.size() > count + 1)
            lines.erase(lines.begin());
    }
    std::vector<Json> events;
    for (const std::string &l : lines) {
        try {
            events.push_back(Json::parse(l));
        } catch (const std::exception &) {
            // A mid-write kill leaves at most one partial tail line.
        }
    }
    if (events.size() > count)
        events.erase(events.begin(), events.end() - long(count));
    return events;
}

std::string
describeEvent(const Json &e)
{
    std::ostringstream os;
    const Json *seq = e.find("seq");
    const Json *t = e.find("t_ms");
    const Json *event = e.find("event");
    if (!seq || !t || !event)
        return "<malformed event>";
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "%10.1f", t->asDouble());
    os << "#" << seq->asInt() << " " << stamp << "ms  "
       << event->asString();
    if (const Json *job = e.find("job"))
        os << " job=" << job->asInt();
    for (const char *key : {"workload", "worker", "reason", "from",
                            "by_priority", "slice_ms", "wait_ms"}) {
        if (const Json *v = e.find(key)) {
            os << " " << key << "=";
            if (v->isString())
                os << v->asString();
            else
                os << v->dump();
        }
    }
    return os.str();
}

struct Frame
{
    Json status;
    std::map<std::string, double> metrics;
    std::vector<Json> events;
};

void
render(const Frame &frame)
{
    const Json &st = frame.status;
    const auto num = [&st](const char *key) -> double {
        const Json *v = st.find(key);
        return v ? v->asDouble() : 0.0;
    };
    std::printf("vtsimd up %.1fs  workers %d  preempt-every %lld\n",
                num("uptime_seconds"), int(num("workers")),
                (long long)num("preempt_every"));

    if (const Json *queue = st.find("queue")) {
        std::printf("queue   depth %d / %d (max %d)\n",
                    int(queue->find("depth")->asDouble()),
                    int(queue->find("limit")->asDouble()),
                    int(queue->find("max_depth")->asDouble()));
    }
    if (const Json *jobs = st.find("jobs")) {
        const auto count = [&jobs](const char *key) {
            const Json *v = jobs->find(key);
            return v ? int(v->asDouble()) : 0;
        };
        std::printf("jobs    running %d  parked %d  submitted %d  "
                    "completed %d  failed %d  cancelled %d\n",
                    count("running"), count("parked"),
                    count("submitted"), count("completed"),
                    count("failed"), count("cancelled"));
    }
    std::printf("sched   preemptions %d  retries %d  utilization "
                "%.0f%%\n",
                int(num("preemptions")), int(num("retries")),
                num("worker_utilization") * 100.0);

    const auto &m = frame.metrics;
    const auto lat = [&m](const char *label, const char *stat) {
        const std::string base =
            std::string("vtsim_service_") + stat;
        const double count = metric(m, base + "_count");
        std::printf("  %-18s n=%-5.0f mean %7.1fms  max %7.1fms\n",
                    label, count,
                    count > 0.0
                        ? metric(m, base + "_sum") / count * 1e3
                        : 0.0,
                    metric(m, base + "_max") * 1e3);
    };
    std::printf("latency\n");
    lat("queue-wait", "queue_wait_seconds");
    lat("run-slice", "run_seconds");
    lat("preempt-resume", "preempt_to_resume_seconds");
    lat("checkpoint-write", "checkpoint_write_seconds");

    if (const Json *list = st.find("job_list")) {
        std::printf("%-5s %-14s %-8s %-9s %5s %4s %9s %9s\n", "JOB",
                    "WORKLOAD", "PRIO", "STATE", "PREMPT", "RTRY",
                    "WAIT(s)", "WALL(s)");
        for (const Json &j : list->asArray()) {
            std::printf("%-5lld %-14s %-8s %-9s %5d %4d %9.2f %9.2f\n",
                        (long long)j.find("job")->asInt(),
                        j.find("workload")->asString().c_str(),
                        j.find("priority")->asString().c_str(),
                        j.find("state")->asString().c_str(),
                        int(j.find("preemptions")->asDouble()),
                        int(j.find("retries")->asDouble()),
                        j.find("wait_seconds")->asDouble(),
                        j.find("wall_seconds")->asDouble());
            // A multi-kernel job lists one line per resident grid.
            const Json *grids = j.find("grids");
            if (!grids)
                continue;
            const Json *policy = j.find("share_policy");
            for (const Json &g : grids->asArray()) {
                const Json *ipc = g.find("ipc");
                const Json *ctas = g.find("ctas_completed");
                std::printf("  grid%lld %-12s %-8s",
                            (long long)g.find("grid")->asInt(),
                            g.find("kernel")->asString().c_str(),
                            policy ? policy->asString().c_str() : "");
                if (ipc && ctas) {
                    std::printf("  ipc %5.2f  ctas %lld",
                                ipc->asDouble(),
                                (long long)ctas->asInt());
                }
                std::printf("\n");
            }
        }
    }

    if (!frame.events.empty()) {
        std::printf("recent events\n");
        for (const Json &e : frame.events)
            std::printf("  %s\n", describeEvent(e).c_str());
    }
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path = "vtsimd.sock";
    std::string evlog_path;
    long interval_ms = 1000;
    bool once = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--socket")
            socket_path = value();
        else if (arg == "--evlog")
            evlog_path = value();
        else if (arg == "--interval") {
            interval_ms = std::strtol(value(), nullptr, 10);
            if (interval_ms < 1)
                usage();
        } else if (arg == "--once")
            once = true;
        else
            usage();
    }

    for (;;) {
        Frame frame;
        try {
            Client client(socket_path);
            Json::Object status_req;
            status_req["op"] = Json("status");
            frame.status = client.request(Json(std::move(status_req)));
            Json::Object metrics_req;
            metrics_req["op"] = Json("metrics");
            const Json reply =
                client.request(Json(std::move(metrics_req)));
            if (const Json *body = reply.find("body"))
                frame.metrics = parseMetrics(body->asString());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "vtsim-top: %s\n", e.what());
            return 1;
        }
        if (!evlog_path.empty())
            frame.events = tailEvents(evlog_path, 8);

        if (!once)
            std::printf("\033[2J\033[H"); // Clear + home.
        render(frame);
        if (once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}
