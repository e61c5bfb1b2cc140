/**
 * @file
 * vtsimd — the simulation-job service daemon. Binds a Unix-domain
 * socket, accepts NDJSON job requests (src/service/protocol.hh) and
 * schedules them onto a preemptive worker pool (src/service/service.hh).
 * Whoever can open the socket file can submit jobs and shut the daemon
 * down: place it in a directory with the permissions you want.
 *
 * Usage:
 *   vtsimd [--socket PATH] [--workers N] [--queue-limit N]
 *          [--preempt-every CYCLES] [--spool DIR] [--stats-json PATH]
 *          [--max-sim-threads N] [--evlog PATH] [--metrics-file PATH]
 *          [--job-trace PATH] [--log-level LEVEL]
 *
 *   --socket PATH         listen here (default ./vtsimd.sock)
 *   --workers N           concurrent simulations (default 2)
 *   --queue-limit N       admission bound; beyond it submits get
 *                         rejected:queue_full (default 64)
 *   --preempt-every N     default checkpoint/preemption cadence in
 *                         cycles for jobs that don't set their own;
 *                         0 disables preemption (default 25000)
 *   --spool DIR           parked checkpoint images (default
 *                         ./vtsimd-spool)
 *   --stats-json PATH     on shutdown, write completed runs plus the
 *                         service telemetry as vtsim-stats-v1 JSON
 *   --max-sim-threads N   largest per-job "sim_threads" shard request
 *                         admitted; bigger asks are rejected at submit
 *                         (default 4)
 *   --evlog PATH          vtsim-evlog-v1 JSONL lifecycle event log
 *                         (src/service/event_log.hh)
 *   --metrics-file PATH   Prometheus text of the service registry,
 *                         rewritten atomically (temp + rename) every
 *                         ~500 ms and once more at shutdown; the same
 *                         payload the "metrics" op returns
 *   --job-trace PATH      Perfetto trace of job lifecycles: worker run
 *                         slices and per-job phase spans
 *   --log-level LEVEL     stderr verbosity: debug|info|warn|error|off
 *                         (default info; VTSIM_LOG_LEVEL also works)
 *
 * The daemon exits after a client's "shutdown" op (draining every
 * admitted job first) or on SIGINT/SIGTERM.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "common/logger.hh"
#include "service/daemon.hh"
#include "service/service.hh"
#include "service/stats_json.hh"

namespace {

vtsim::service::Daemon *g_daemon = nullptr;

void
onSignal(int)
{
    // requestStop only touches an atomic and shutdown(2) — both
    // async-signal-safe.
    if (g_daemon)
        g_daemon->requestStop();
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: vtsimd [--socket PATH] [--workers N] "
                 "[--queue-limit N]\n"
                 "              [--preempt-every CYCLES] [--spool DIR] "
                 "[--stats-json PATH]\n"
                 "              [--max-sim-threads N] [--evlog PATH]\n"
                 "              [--metrics-file PATH] [--job-trace "
                 "PATH]\n"
                 "              [--log-level "
                 "debug|info|warn|error|off]\n");
    std::exit(2);
}

unsigned long long
parseCount(const char *text, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "vtsimd: invalid %s '%s'\n", what, text);
        std::exit(2);
    }
    return n;
}

/** Atomically replace @p path with @p body (temp file + rename), so a
 *  scraper never reads a half-written snapshot. */
bool
writeFileAtomic(const std::string &path, const std::string &body)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        os << body;
        os.flush();
        if (!os)
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    return !ec;
}

/**
 * Background Prometheus exporter: rewrites the metrics file every
 * ~500 ms while the daemon serves, plus a final snapshot from the
 * destructor after the drain — the file always ends at the terminal
 * counters.
 */
class MetricsFileWriter
{
  public:
    MetricsFileWriter(vtsim::service::JobService &service,
                      std::string path)
        : service_(service), path_(std::move(path))
    {
        if (path_.empty())
            return;
        thread_ = std::thread([this] { run(); });
    }

    ~MetricsFileWriter()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
        writeOnce(); // Final post-drain snapshot.
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lk(mu_);
        while (!stop_) {
            lk.unlock();
            writeOnce();
            lk.lock();
            cv_.wait_for(lk, std::chrono::milliseconds(500),
                         [this] { return stop_; });
        }
    }

    void
    writeOnce()
    {
        if (!writeFileAtomic(path_, service_.metricsText())) {
            vtsim::logging::warn("vtsimd",
                                 "cannot write metrics file '", path_,
                                 "'");
        }
    }

    vtsim::service::JobService &service_;
    std::string path_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace vtsim::service;
    namespace logging = vtsim::logging;

    std::string socket_path = "vtsimd.sock";
    std::string stats_json_path;
    std::string metrics_file_path;
    ServiceConfig config;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--socket")
            socket_path = value();
        else if (arg == "--workers")
            config.workers = unsigned(parseCount(value(), "--workers"));
        else if (arg == "--queue-limit")
            config.queueLimit =
                std::size_t(parseCount(value(), "--queue-limit"));
        else if (arg == "--preempt-every")
            config.preemptEvery = parseCount(value(), "--preempt-every");
        else if (arg == "--spool")
            config.spoolDir = value();
        else if (arg == "--max-sim-threads")
            config.maxSimThreads =
                unsigned(parseCount(value(), "--max-sim-threads"));
        else if (arg == "--stats-json")
            stats_json_path = value();
        else if (arg == "--evlog")
            config.eventLogPath = value();
        else if (arg == "--metrics-file")
            metrics_file_path = value();
        else if (arg == "--job-trace")
            config.jobTracePath = value();
        else if (arg == "--log-level") {
            try {
                logging::setLevel(logging::parseLevel(value()));
            } catch (const std::exception &e) {
                std::fprintf(stderr, "vtsimd: %s\n", e.what());
                return 2;
            }
        } else
            usage();
    }
    if (config.workers < 1) {
        std::fprintf(stderr, "vtsimd: --workers must be >= 1\n");
        return 2;
    }

    try {
        const auto started = std::chrono::steady_clock::now();
        JobService service(config);

        Daemon daemon(service, socket_path);
        daemon.start();
        g_daemon = &daemon;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::signal(SIGPIPE, SIG_IGN);

        logging::info("vtsimd", "listening on ", socket_path, " (",
                      config.workers, " workers, queue limit ",
                      config.queueLimit, ", preempt every ",
                      config.preemptEvery, " cycles)");
        {
            MetricsFileWriter metrics(service, metrics_file_path);
            daemon.serve();

            logging::info("vtsimd", "draining...");
            service.shutdown();
            // MetricsFileWriter's destructor writes the post-drain
            // snapshot here.
        }
        g_daemon = nullptr;

        if (!stats_json_path.empty()) {
            std::ofstream os(stats_json_path);
            if (!os) {
                logging::error("vtsimd",
                               "cannot open stats-json file '",
                               stats_json_path, "'");
                return 1;
            }
            const Json section = service.statsJsonSection();
            const auto runs = service.completedRuns();
            BatchMeta meta;
            meta.wallMs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started)
                    .count() *
                1e3;
            std::uint64_t cycles = 0;
            std::uint64_t thread_instructions = 0;
            for (const RunRecord &r : runs) {
                cycles += r.stats.cycles;
                thread_instructions += r.stats.threadInstructions;
            }
            if (meta.wallMs > 0.0) {
                meta.kcyclesPerSec =
                    double(cycles) / (meta.wallMs / 1e3) / 1e3;
                meta.mips = double(thread_instructions) /
                            (meta.wallMs / 1e3) / 1e6;
            }
            writeStatsJson(os, runs, &section, meta);
            logging::info("vtsimd", "wrote ", stats_json_path);
        }
    } catch (const std::exception &e) {
        logging::error("vtsimd", e.what());
        return 1;
    }
    return 0;
}
