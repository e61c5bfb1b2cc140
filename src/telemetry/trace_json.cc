#include "telemetry/trace_json.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/log.hh"

namespace vtsim::telemetry {

std::uint32_t
parseTraceCategories(const std::string &list)
{
    // In TraceCategory order: a name's index is its bit.
    static const char *const names[] = {"issue", "mem",  "swap",
                                        "cta",   "dram", "barrier"};
    std::uint32_t mask = 0;
    std::istringstream in(list);
    std::string name;
    while (std::getline(in, name, ',')) {
        const auto it = std::find(std::begin(names), std::end(names), name);
        if (it != std::end(names))
            mask |= 1u << (it - std::begin(names));
        else if (name == "all")
            mask |= allTraceCategories;
        else if (!name.empty())
            VTSIM_FATAL("unknown trace category '", name, "'");
    }
    return mask;
}

TraceJsonWriter::TraceJsonWriter(const std::string &path,
                                 std::uint32_t categories)
    : categories_(categories), file_(std::make_unique<std::ofstream>(path))
{
    if (!*file_)
        VTSIM_FATAL("cannot open trace file '", path, "'");
    os_ = file_.get();
    *os_ << "{\"traceEvents\":[\n";
    open_ = true;
}

TraceJsonWriter::TraceJsonWriter(std::ostream &os,
                                 std::uint32_t categories)
    : categories_(categories), os_(&os)
{
    *os_ << "{\"traceEvents\":[\n";
    open_ = true;
}

TraceJsonWriter::~TraceJsonWriter()
{
    close();
}

void
TraceJsonWriter::close()
{
    if (!open_)
        return;
    *os_ << "\n]}\n";
    os_->flush();
    open_ = false;
}

void
TraceJsonWriter::event(const std::string &json)
{
    if (!open_)
        return;
    if (!firstEvent_)
        *os_ << ",\n";
    firstEvent_ = false;
    *os_ << json;
}

void
TraceJsonWriter::processName(std::uint32_t pid, const std::string &name)
{
    event("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
          std::to_string(pid) +
          ",\"args\":{\"name\":\"" + name + "\"}}");
}

void
TraceJsonWriter::threadName(std::uint32_t pid, std::uint32_t tid,
                            const std::string &name)
{
    event("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
          std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
          ",\"args\":{\"name\":\"" + name + "\"}}");
}

void
TraceJsonWriter::begin(std::uint32_t pid, std::uint32_t tid, Cycle cycle,
                       const std::string &name,
                       const std::string &category)
{
    event("{\"ph\":\"B\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":" + std::to_string(tid) +
          ",\"ts\":" + std::to_string(cycle) +
          ",\"name\":\"" + name + "\",\"cat\":\"" + category + "\"}");
}

void
TraceJsonWriter::end(std::uint32_t pid, std::uint32_t tid, Cycle cycle)
{
    event("{\"ph\":\"E\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":" + std::to_string(tid) +
          ",\"ts\":" + std::to_string(cycle) + "}");
}

void
TraceJsonWriter::instant(std::uint32_t pid, std::uint32_t tid, Cycle cycle,
                         const std::string &name,
                         const std::string &category)
{
    event("{\"ph\":\"i\",\"s\":\"t\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":" + std::to_string(tid) +
          ",\"ts\":" + std::to_string(cycle) +
          ",\"name\":\"" + name + "\",\"cat\":\"" + category + "\"}");
}

void
TraceStage::replay(const Event &e, TraceJsonWriter &sink)
{
    switch (e.kind) {
      case 0: sink.begin(e.pid, e.tid, e.cycle, e.name, e.cat); break;
      case 1: sink.end(e.pid, e.tid, e.cycle); break;
      case 2: sink.instant(e.pid, e.tid, e.cycle, e.name, e.cat); break;
      default: VTSIM_FATAL("corrupt staged trace event kind ",
                           unsigned(e.kind));
    }
}

} // namespace vtsim::telemetry
