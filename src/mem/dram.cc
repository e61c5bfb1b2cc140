#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/serialize_util.hh"
#include "telemetry/trace_json.hh"

namespace vtsim {

Dram::Dram(const DramParams &params)
    : params_(params), banks_(params.numBanks), stats_(params.name)
{
    VTSIM_ASSERT(params.numBanks > 0 && params.bytesPerCycle > 0,
                 "degenerate DRAM shape");
    stats_.addCounter("row_hits", &rowHits_, "row-buffer hits");
    stats_.addCounter("row_misses", &rowMisses_,
                      "row-buffer misses (activate+precharge)");
    stats_.addCounter("bytes", &bytes_, "bytes moved over the data bus");
    for (std::uint32_t g = 0; g < maxGrids; ++g) {
        const std::string tag = "grid" + std::to_string(g);
        const std::string suffix = " for grid " + std::to_string(g);
        stats_.addCounter(tag + ".row_hits", &gridRowHits_[g],
                          "row-buffer hits" + suffix);
        stats_.addCounter(tag + ".row_misses", &gridRowMisses_[g],
                          "row-buffer misses" + suffix);
        stats_.addCounter(tag + ".bytes", &gridBytes_[g],
                          "data-bus bytes" + suffix);
    }
    stats_.addScalar("queue_depth", &queueDepth_,
                     "scheduler queue depth per enqueue");
}

void
Dram::enqueue(Addr line_addr, std::uint32_t bytes, bool needs_completion,
              Cycle now, GridId grid)
{
    (void)now;
    Request req;
    req.lineAddr = line_addr;
    req.bytes = std::max(bytes, 1u);
    req.needsCompletion = needs_completion;
    req.grid = grid;
    // Renumber lines partition-locally (disjoint bits from partition
    // selection), then interleave across banks; rows stack above that.
    const std::uint64_t local_line =
        line_addr / params_.lineSize / std::max(params_.addressStride, 1u);
    const std::uint64_t lines_per_row =
        std::max(params_.rowBufferBytes / params_.lineSize, 1u);
    req.bank = local_line % params_.numBanks;
    req.row = local_line / (params_.numBanks * lines_per_row);
    queue_.push_back(req);
    queueDepth_.sample(static_cast<double>(queue_.size()));
}

bool
Dram::issueOne(Cycle now)
{
    // FR-FCFS over a bounded window: first pass prefers row hits at free
    // banks, second pass takes the oldest request at any free bank.
    const std::size_t window =
        std::min<std::size_t>(queue_.size(), params_.schedWindow);

    std::size_t chosen = window;
    for (std::size_t i = 0; i < window; ++i) {
        const Request &req = queue_[i];
        const Bank &bank = banks_[req.bank];
        if (bank.readyAt <= now && bank.openRow == req.row) {
            chosen = i;
            break;
        }
    }
    if (chosen == window) {
        for (std::size_t i = 0; i < window; ++i) {
            if (banks_[queue_[i].bank].readyAt <= now) {
                chosen = i;
                break;
            }
        }
    }
    if (chosen == window)
        return false;

    const Request req = queue_[chosen];
    queue_.erase(queue_.begin() + chosen);
    Bank &bank = banks_[req.bank];

    if (traceJson_ && traceJson_->enabled(telemetry::TraceCategory::Dram)) {
        traceJson_->instant(tracePid_, req.bank, now,
                            bank.openRow == req.row ? "row-hit"
                                                    : "row-miss",
                            "dram");
    }
    Cycle latency;
    Cycle occupancy;
    if (bank.openRow == req.row) {
        latency = params_.rowHitLatency;
        occupancy = params_.rowHitOccupancy;
        ++rowHits_;
        ++gridRowHits_[req.grid];
    } else {
        latency = params_.rowMissLatency;
        occupancy = params_.rowMissOccupancy;
        bank.openRow = req.row;
        ++rowMisses_;
        ++gridRowMisses_[req.grid];
    }

    // The bank is occupied only while its commands issue; the access
    // latency itself is pipelined and overlaps with other banks.
    const Cycle data_cycles = ceilDiv(req.bytes, params_.bytesPerCycle);
    bank.readyAt = now + occupancy;
    const Cycle bus_start = std::max(now + latency, busReadyAt_);
    const Cycle done = bus_start + data_cycles;
    busReadyAt_ = bus_start + data_cycles;
    bytes_ += req.bytes;
    gridBytes_[req.grid] += req.bytes;

    inFlight_.push({done, req.lineAddr, req.needsCompletion});
    return true;
}

std::vector<Addr>
Dram::advance(Cycle now)
{
    std::vector<Addr> completed;
    while (!inFlight_.empty() && inFlight_.top().readyAt <= now) {
        if (inFlight_.top().needsCompletion)
            completed.push_back(inFlight_.top().lineAddr);
        inFlight_.pop();
    }
    for (std::uint32_t c = 0; c < params_.commandsPerCycle; ++c) {
        if (!issueOne(now))
            break;
    }
    return completed;
}

Cycle
Dram::nextEventCycle(Cycle now)
{
    Cycle next = neverCycle;
    if (!inFlight_.empty())
        next = std::min(next, std::max(now, inFlight_.top().readyAt));
    // A queued request issues as soon as its bank frees; only requests
    // inside the FR-FCFS window are candidates, exactly as issueOne()
    // scans them.
    const std::size_t window =
        std::min<std::size_t>(queue_.size(), params_.schedWindow);
    for (std::size_t i = 0; i < window; ++i) {
        const Cycle bank_free = banks_[queue_[i].bank].readyAt;
        next = std::min(next, std::max(now, bank_free));
    }
    return next;
}

bool
Dram::idle() const
{
    return queue_.empty() && inFlight_.empty();
}

void
Dram::reset()
{
    for (auto &bank : banks_)
        bank = Bank{};
    queue_.clear();
    inFlight_ = {};
    busReadyAt_ = 0;
    rowHits_.reset();
    rowMisses_.reset();
    bytes_.reset();
    for (std::uint32_t g = 0; g < maxGrids; ++g) {
        gridRowHits_[g].reset();
        gridRowMisses_[g].reset();
        gridBytes_[g].reset();
    }
    queueDepth_.reset();
}

void
Dram::save(Serializer &ser) const
{
    const std::size_t sec = ser.beginSection("dram");
    ser.putVec(banks_);
    ser.put<std::uint64_t>(queue_.size());
    for (const Request &req : queue_) {
        ser.put(req.lineAddr);
        ser.put(req.bytes);
        ser.put<std::uint8_t>(req.needsCompletion);
        ser.put(req.bank);
        ser.put(req.row);
        ser.put(req.grid);
    }
    // Drain a copy of the completion heap; re-pushing on restore
    // rebuilds an equivalent heap.
    auto in_flight = inFlight_;
    ser.put<std::uint64_t>(in_flight.size());
    while (!in_flight.empty()) {
        const Completion &c = in_flight.top();
        ser.put(c.readyAt);
        ser.put(c.lineAddr);
        ser.put<std::uint8_t>(c.needsCompletion);
        in_flight.pop();
    }
    ser.put(busReadyAt_);
    saveStat(ser, rowHits_);
    saveStat(ser, rowMisses_);
    saveStat(ser, bytes_);
    for (std::uint32_t g = 0; g < maxGrids; ++g) {
        saveStat(ser, gridRowHits_[g]);
        saveStat(ser, gridRowMisses_[g]);
        saveStat(ser, gridBytes_[g]);
    }
    saveStat(ser, queueDepth_);
    ser.endSection(sec);
}

void
Dram::restore(Deserializer &des)
{
    des.beginSection("dram");
    const std::size_t num_banks = banks_.size();
    des.getVec(banks_);
    VTSIM_ASSERT(banks_.size() == num_banks, "DRAM bank-count mismatch");
    queue_.clear();
    const auto queued = des.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < queued; ++i) {
        Request req;
        des.get(req.lineAddr);
        des.get(req.bytes);
        req.needsCompletion = des.get<std::uint8_t>() != 0;
        des.get(req.bank);
        des.get(req.row);
        des.get(req.grid);
        queue_.push_back(req);
    }
    inFlight_ = {};
    const auto in_flight = des.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < in_flight; ++i) {
        Completion c;
        des.get(c.readyAt);
        des.get(c.lineAddr);
        c.needsCompletion = des.get<std::uint8_t>() != 0;
        inFlight_.push(c);
    }
    des.get(busReadyAt_);
    restoreStat(des, rowHits_);
    restoreStat(des, rowMisses_);
    restoreStat(des, bytes_);
    for (std::uint32_t g = 0; g < maxGrids; ++g) {
        restoreStat(des, gridRowHits_[g]);
        restoreStat(des, gridRowMisses_[g]);
        restoreStat(des, gridBytes_[g]);
    }
    restoreStat(des, queueDepth_);
    des.endSection();
}

} // namespace vtsim
