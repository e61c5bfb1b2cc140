#include "service/stats_json.hh"

#include <cstdio>
#include <sstream>

#include <unistd.h>

namespace vtsim::service {

namespace {

std::string
currentHost()
{
    char buf[256] = {};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown";
    return buf[0] ? buf : "unknown";
}

/** The KernelStats object body, at @p pad indentation (opening brace
 *  already written by the caller). */
void
writeKernelStatsObject(std::ostream &os, const KernelStats &s,
                       const std::string &pad)
{
    os << pad << "  \"cycles\": " << s.cycles << ",\n"
       << pad << "  \"ipc\": " << jsonDouble(s.ipc) << ",\n"
       << pad << "  \"warp_instructions\": " << s.warpInstructions
       << ",\n"
       << pad << "  \"thread_instructions\": " << s.threadInstructions
       << ",\n"
       << pad << "  \"ctas_completed\": " << s.ctasCompleted << ",\n"
       << pad << "  \"l1_hits\": " << s.l1Hits << ",\n"
       << pad << "  \"l1_misses\": " << s.l1Misses << ",\n"
       << pad << "  \"l2_hits\": " << s.l2Hits << ",\n"
       << pad << "  \"l2_misses\": " << s.l2Misses << ",\n"
       << pad << "  \"dram_row_hits\": " << s.dramRowHits << ",\n"
       << pad << "  \"dram_row_misses\": " << s.dramRowMisses << ",\n"
       << pad << "  \"dram_bytes\": " << s.dramBytes << ",\n"
       << pad << "  \"swap_outs\": " << s.swapOuts << ",\n"
       << pad << "  \"swap_ins\": " << s.swapIns << ",\n"
       << pad << "  \"stalls\": {"
       << "\"issued\": " << s.stalls.issued
       << ", \"mem\": " << s.stalls.memStall
       << ", \"short\": " << s.stalls.shortStall
       << ", \"barrier\": " << s.stalls.barrierStall
       << ", \"swap\": " << s.stalls.swapStall
       << ", \"idle\": " << s.stalls.idle << "}\n"
       << pad << "}";
}

} // namespace

std::string
jsonDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    for (int prec = 1; prec < 17; ++prec) {
        char probe[40];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(probe, "%lf", &back);
        if (back == v)
            return probe;
    }
    return buf;
}

void
writeStatsJson(std::ostream &os, const std::vector<RunRecord> &runs,
               const Json *service, const BatchMeta &meta)
{
    const std::string host =
        meta.host.empty() ? currentHost() : meta.host;
    os << "{\n  \"schema\": \"vtsim-stats-v1\",\n"
       << "  \"host\": " << Json(host).dump() << ",\n"
       << "  \"wall_ms\": " << jsonDouble(meta.wallMs) << ",\n"
       << "  \"sim_threads\": " << meta.simThreads << ",\n"
       << "  \"kcycles_per_sec\": " << jsonDouble(meta.kcyclesPerSec)
       << ",\n"
       << "  \"mips\": " << jsonDouble(meta.mips) << ",\n";
    if (service)
        os << "  \"service\": " << service->dump() << ",\n";
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunRecord &r = runs[i];
        const KernelStats &s = r.stats;
        os << "    {\n"
           << "      \"workload\": \"" << r.workload << "\",\n"
           << "      \"scale\": " << r.scale << ",\n"
           << "      \"config\": {"
           << "\"num_sms\": " << r.config.numSms
           << ", \"vt_enabled\": "
           << (r.config.vtEnabled ? "true" : "false")
           << ", \"throttle_enabled\": "
           << (r.config.throttleEnabled ? "true" : "false")
           << ", \"fast_forward\": "
           << (r.config.fastForwardEnabled ? "true" : "false")
           << "},\n"
           << "      \"verified\": " << (r.verified ? "true" : "false")
           << ",\n"
           << "      \"wall_seconds\": " << jsonDouble(r.wallSeconds)
           << ",\n"
           << "      \"kcycles_per_sec\": " << jsonDouble(r.kcyclesPerSec())
           << ",\n"
           << "      \"mips\": " << jsonDouble(r.mips()) << ",\n"
           << "      \"max_simt_depth\": " << r.maxSimtDepth << ",\n"
           << "      \"stats\": {\n";
        writeKernelStatsObject(os, s, "      ");
        os << ",\n";
        if (!r.sharePolicy.empty()) {
            os << "      \"share_policy\": " << Json(r.sharePolicy).dump()
               << ",\n";
        }
        if (!r.grids.empty()) {
            os << "      \"grids\": [\n";
            for (std::size_t g = 0; g < r.grids.size(); ++g) {
                const GridStats &gs = r.grids[g];
                os << "        {\n"
                   << "          \"kernel\": " << Json(gs.kernelName).dump()
                   << ",\n"
                   << "          \"priority\": " << gs.priority << ",\n"
                   << "          \"stats\": {\n";
                writeKernelStatsObject(os, gs.stats, "          ");
                os << "\n        }"
                   << (g + 1 < r.grids.size() ? "," : "") << '\n';
            }
            os << "      ],\n";
        }
        os << "      \"intervals\": [";
        // The interval series is JSONL — one object per line, already
        // valid JSON: embed the lines as array elements.
        bool first_line = true;
        std::istringstream lines(r.intervalSeries);
        std::string line;
        while (std::getline(lines, line)) {
            if (line.empty())
                continue;
            os << (first_line ? "\n        " : ",\n        ") << line;
            first_line = false;
        }
        os << (first_line ? "]" : "\n      ]") << "\n    }"
           << (i + 1 < runs.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

} // namespace vtsim::service
