/**
 * @file
 * Memory-trace record/replay (vtsim-mtrace-v1): a replayed trace must
 * drive the Coalescer->Cache->NoC->MemoryPartition->Dram pipeline to
 * bit-identical cache/DRAM statistics without executing a single
 * instruction; malformed or truncated trace files must be rejected
 * with a clear FatalError, never a crash; and checkpoints taken in one
 * simulation mode must refuse to resume in the other.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "mem/mtrace.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

GpuConfig
traceConfig()
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.numSms = 4;
    cfg.numMemPartitions = 2;
    cfg.maxCycles = 5'000'000;
    cfg.fastForwardEnabled = true;
    return cfg;
}

std::string
tempPath(const std::string &stem)
{
    return test::uniqueTempPath(stem);
}

KernelStats
launchOn(Gpu &gpu, const std::string &name)
{
    auto wl = makeWorkload(name, 0);
    const Kernel k = wl->buildKernel();
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    return stats;
}

/** The cycle count and every memory-hierarchy counter, bit for bit.
 *  (Issue-side counters legitimately differ: a replay executes
 *  nothing, so it issues nothing.) */
void
expectIdenticalMemoryStats(const KernelStats &func, const KernelStats &rep,
                           const std::string &context)
{
    EXPECT_EQ(func.cycles, rep.cycles) << context;
    EXPECT_EQ(func.l1Hits, rep.l1Hits) << context;
    EXPECT_EQ(func.l1Misses, rep.l1Misses) << context;
    EXPECT_EQ(func.l2Hits, rep.l2Hits) << context;
    EXPECT_EQ(func.l2Misses, rep.l2Misses) << context;
    EXPECT_EQ(func.dramRowHits, rep.dramRowHits) << context;
    EXPECT_EQ(func.dramRowMisses, rep.dramRowMisses) << context;
    EXPECT_EQ(func.dramBytes, rep.dramBytes) << context;
    EXPECT_EQ(rep.warpInstructions, 0u) << context;
    EXPECT_EQ(rep.ctasCompleted, 0u) << context;
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

// ---------------------------------------------------------------------------
// Record -> replay equivalence.
// ---------------------------------------------------------------------------

class MtraceRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(MtraceRoundTrip, ReplayReproducesMemoryStats)
{
    const std::string wl = GetParam();
    GpuConfig cfg = traceConfig();
    for (const bool vt : {false, true}) {
        cfg.vtEnabled = vt;
        const std::string tag = wl + (vt ? "/vt" : "/baseline");
        const std::string trace = tempPath("mtr_" + wl +
                                           (vt ? "_vt" : "_base"));

        Gpu rec(cfg);
        rec.enableMtraceRecord(trace);
        const KernelStats func = launchOn(rec, wl);

        // Recording must not perturb the run itself.
        Gpu plain(cfg);
        const KernelStats undisturbed = launchOn(plain, wl);
        EXPECT_EQ(func.cycles, undisturbed.cycles) << tag;
        EXPECT_EQ(func.l2Misses, undisturbed.l2Misses) << tag;

        Gpu rep(cfg);
        const KernelStats replayed = rep.replayTrace(trace);
        expectIdenticalMemoryStats(func, replayed, tag);

        // Replay composes with --sim-threads: the sharded epoch driver
        // must reproduce the sequential replay bit for bit.
        Gpu sharded(cfg);
        sharded.setSimThreads(4);
        const KernelStats sharded_rep = sharded.replayTrace(trace);
        expectIdenticalMemoryStats(func, sharded_rep, tag + "/sharded");

        std::remove(trace.c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, MtraceRoundTrip,
                         ::testing::Values("vecadd", "reduce", "stencil",
                                           "histogram"));

TEST(Mtrace, HeaderAndMarkersRecorded)
{
    const std::string trace = tempPath("mtr_markers");
    GpuConfig cfg = traceConfig();
    Gpu gpu(cfg);
    gpu.enableMtraceRecord(trace);
    launchOn(gpu, "reduce"); // Has CTA-wide barriers.

    MtraceReader reader;
    reader.load(trace);
    EXPECT_EQ(reader.header().numSms, cfg.numSms);
    EXPECT_EQ(reader.header().numMemPartitions, cfg.numMemPartitions);
    EXPECT_EQ(reader.header().l1LineSize, cfg.l1LineSize);
    EXPECT_EQ(reader.header().l2LineSize, cfg.l2LineSize);
    EXPECT_GT(reader.totalAccesses(), 0u);
    EXPECT_GT(reader.totalBarriers(), 0u);
    // Every access slice is cycle-monotonic and within its SM.
    for (std::uint32_t s = 0; s < cfg.numSms; ++s) {
        Cycle prev = 0;
        for (const MtraceAccess &a : reader.accesses(s)) {
            EXPECT_EQ(a.sm, s);
            EXPECT_GE(a.cycle, prev);
            prev = a.cycle;
        }
    }
    std::remove(trace.c_str());
}

TEST(Mtrace, RecordForcesSequentialSimulation)
{
    const std::string trace = tempPath("mtr_seq");
    GpuConfig cfg = traceConfig();
    Gpu gpu(cfg);
    gpu.setSimThreads(4); // Record must override this to 1.
    gpu.enableMtraceRecord(trace);
    const KernelStats rec = launchOn(gpu, "vecadd");

    Gpu plain(cfg);
    const KernelStats ref = launchOn(plain, "vecadd");
    EXPECT_EQ(rec.cycles, ref.cycles);
    std::remove(trace.c_str());
}

// ---------------------------------------------------------------------------
// Misuse guards.
// ---------------------------------------------------------------------------

TEST(Mtrace, RecordAndReplayAreExclusive)
{
    const std::string trace = tempPath("mtr_excl");
    GpuConfig cfg = traceConfig();
    {
        Gpu gpu(cfg);
        gpu.enableMtraceRecord(trace);
        launchOn(gpu, "vecadd");
    }
    Gpu gpu(cfg);
    gpu.enableMtraceRecord(tempPath("mtr_excl_out"));
    EXPECT_THROW(gpu.replayTrace(trace), FatalError);
    std::remove(trace.c_str());
}

TEST(Mtrace, RecordRejectsCheckpointCadence)
{
    GpuConfig cfg = traceConfig();
    Gpu gpu(cfg);
    gpu.setCheckpoint(tempPath("mtr_cadence_ckpt"), 100);
    gpu.enableMtraceRecord(tempPath("mtr_cadence"));
    auto wl = makeWorkload("vecadd", 0);
    const Kernel k = wl->buildKernel();
    const LaunchParams lp = wl->prepare(gpu.memory());
    EXPECT_THROW(gpu.launch(k, lp), FatalError);
}

TEST(Mtrace, ReplayRejectsWrongMachineShape)
{
    const std::string trace = tempPath("mtr_shape");
    GpuConfig cfg = traceConfig();
    {
        Gpu gpu(cfg);
        gpu.enableMtraceRecord(trace);
        launchOn(gpu, "vecadd");
    }
    GpuConfig other = cfg;
    other.numSms += 1;
    Gpu gpu(other);
    EXPECT_THROW(gpu.replayTrace(trace), FatalError);
    std::remove(trace.c_str());
}

// ---------------------------------------------------------------------------
// Checkpointing across modes.
// ---------------------------------------------------------------------------

TEST(Mtrace, FunctionalCheckpointRefusesReplayResume)
{
    GpuConfig cfg = traceConfig();
    const std::string trace = tempPath("mtr_mode_trace");
    const std::string ckpt = tempPath("mtr_mode_func_ckpt");
    {
        Gpu gpu(cfg);
        gpu.enableMtraceRecord(trace);
        launchOn(gpu, "vecadd");
    }
    {
        // A mid-run functional checkpoint (cadence boundaries).
        Gpu gpu(cfg);
        gpu.setCheckpoint(ckpt, 50);
        launchOn(gpu, "vecadd");
    }
    Gpu gpu(cfg);
    gpu.restoreCheckpoint(ckpt);
    EXPECT_THROW(gpu.replayTrace(trace), FatalError);
    std::remove(trace.c_str());
    std::remove(ckpt.c_str());
}

TEST(Mtrace, ReplayCheckpointRefusesFunctionalResume)
{
    GpuConfig cfg = traceConfig();
    const std::string trace = tempPath("mtr_rmode_trace");
    const std::string ckpt = tempPath("mtr_rmode_ckpt");
    {
        Gpu gpu(cfg);
        gpu.enableMtraceRecord(trace);
        launchOn(gpu, "vecadd");
    }
    {
        Gpu gpu(cfg);
        gpu.setCheckpoint(ckpt, 50); // Mid-replay cadence checkpoints.
        gpu.replayTrace(trace);
    }
    Gpu gpu(cfg);
    const LaunchParams lp = gpu.restoreCheckpoint(ckpt);
    auto wl = makeWorkload("vecadd", 0);
    const Kernel k = wl->buildKernel();
    EXPECT_THROW(gpu.launch(k, lp), FatalError);
    std::remove(trace.c_str());
    std::remove(ckpt.c_str());
}

TEST(Mtrace, ReplayResumesFromCheckpointBitIdentically)
{
    GpuConfig cfg = traceConfig();
    const std::string trace = tempPath("mtr_resume_trace");
    const std::string ckpt = tempPath("mtr_resume_ckpt");
    {
        Gpu gpu(cfg);
        gpu.enableMtraceRecord(trace);
        launchOn(gpu, "stencil");
    }
    Gpu straight(cfg);
    const KernelStats uninterrupted = straight.replayTrace(trace);

    // A cadence-checkpointing replay must not perturb the run, and its
    // last mid-run image must resume to whole-run-identical stats.
    Gpu ck(cfg);
    ck.setCheckpoint(ckpt, uninterrupted.cycles / 2);
    const KernelStats checkpointing = ck.replayTrace(trace);
    expectIdenticalMemoryStats(uninterrupted, checkpointing, "ckpt run");

    Gpu resumed(cfg);
    resumed.restoreCheckpoint(ckpt);
    const KernelStats rest = resumed.replayTrace(trace);
    expectIdenticalMemoryStats(uninterrupted, rest, "resumed");

    std::remove(trace.c_str());
    std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Malformed traces: clear rejection, never a crash.
// ---------------------------------------------------------------------------

class MtraceMalformed : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        trace_ = tempPath("mtr_malformed");
        GpuConfig cfg = traceConfig();
        Gpu gpu(cfg);
        gpu.enableMtraceRecord(trace_);
        launchOn(gpu, "vecadd");
        bytes_ = readBytes(trace_);
        ASSERT_GT(bytes_.size(), 64u);
    }

    void TearDown() override { std::remove(trace_.c_str()); }

    /** Expect the mangled bytes to be rejected with a FatalError. */
    void
    expectRejected(const std::vector<std::uint8_t> &mangled,
                   const std::string &what)
    {
        writeBytes(trace_, mangled);
        MtraceReader reader;
        EXPECT_THROW(reader.load(trace_), FatalError) << what;
    }

    std::string trace_;
    std::vector<std::uint8_t> bytes_;
};

TEST_F(MtraceMalformed, EveryTruncationRejected)
{
    // Every header prefix, plus a sweep of cut points through the
    // records (stepped, to keep the test fast) and the final seal.
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n < 64 && n < bytes_.size(); ++n)
        cuts.push_back(n);
    for (std::size_t n = 64; n < bytes_.size(); n += 97)
        cuts.push_back(n);
    cuts.push_back(bytes_.size() - 1);
    for (const std::size_t n : cuts) {
        expectRejected(
            std::vector<std::uint8_t>(bytes_.begin(), bytes_.begin() + n),
            "truncated to " + std::to_string(n) + " bytes");
    }
}

TEST_F(MtraceMalformed, BadMagicAndVersionRejected)
{
    auto bad = bytes_;
    bad[0] ^= 0xff;
    expectRejected(bad, "corrupt magic");

    bad = bytes_;
    bad[8] = 0xfe; // version LSB
    expectRejected(bad, "unsupported version");
}

TEST_F(MtraceMalformed, CorruptHeaderFieldsRejected)
{
    auto bad = bytes_;
    bad[12] = bad[13] = bad[14] = bad[15] = 0; // numSms = 0
    expectRejected(bad, "zero SMs");

    bad = bytes_;
    bad[20] = 3; // l1LineSize LSB: not a power of two
    expectRejected(bad, "non-power-of-two line size");
}

TEST_F(MtraceMalformed, TrailingGarbageRejected)
{
    auto bad = bytes_;
    bad.push_back(0x42);
    expectRejected(bad, "trailing bytes after the end seal");
}

TEST_F(MtraceMalformed, MissingEndSealRejected)
{
    // Drop the end record (1-byte kind + 8-byte count).
    expectRejected(std::vector<std::uint8_t>(bytes_.begin(),
                                             bytes_.end() - 9),
                   "missing end seal");
}

TEST_F(MtraceMalformed, GarbageFileRejected)
{
    expectRejected({'n', 'o', 't', 'a', 't', 'r', 'a', 'c', 'e'},
                   "garbage file");
    MtraceReader reader;
    EXPECT_THROW(reader.load(trace_ + ".does-not-exist"), FatalError);
}

} // namespace
} // namespace vtsim
