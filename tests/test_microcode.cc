/**
 * @file
 * Every VASM benchmark kernel under baseline, Virtual Thread and
 * DYNCTA-throttled machines reproduces the KernelStats the legacy
 * per-instruction interpreter produced. That interpreter is gone; its
 * results are pinned in kLegacy (every case ran bit-identically on the
 * pre-decoded micro-ops too before it was deleted), so the micro-op
 * handlers stay checked against it end to end. The handlers themselves
 * are checked per opcode in tests/test_func.cc and
 * tests/test_opcode_semantics.cc.
 *
 * Running the suite with VTSIM_PRINT_PINNED_STATS=1 prints each case's
 * row instead of comparing, for regenerating the table after an
 * intended timing-model change.
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>

#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

enum class Machine { Baseline, Vt, Throttled };

std::string
toString(Machine m)
{
    switch (m) {
      case Machine::Baseline: return "baseline";
      case Machine::Vt: return "vt";
      case Machine::Throttled: return "throttled";
    }
    return "?";
}

GpuConfig
machineConfig(Machine m)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.numSms = 4;
    cfg.numMemPartitions = 2;
    cfg.maxCycles = 5'000'000;
    cfg.fastForwardEnabled = true;
    switch (m) {
      case Machine::Baseline:
        break;
      case Machine::Vt:
        cfg.vtEnabled = true;
        break;
      case Machine::Throttled:
        cfg.throttleEnabled = true;
        break;
    }
    return cfg;
}

// clang-format off
const test::Pinned kLegacy[] = {
    {"vecadd/baseline", {695, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 4800, 84, 0, 0, 372}},
    {"vecadd/vt", {695, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 4800, 84, 0, 0, 372}},
    {"vecadd/throttled", {695, 304, 9728, 8, 0, 32, 0, 32, 16, 16, 4096, 0, 0, 304, 4800, 84, 0, 0, 372}},
    {"saxpy/baseline", {1157, 544, 17408, 4, 0, 64, 0, 64, 48, 16, 8192, 0, 0, 544, 8248, 140, 0, 0, 324}},
    {"saxpy/vt", {1157, 544, 17408, 4, 0, 64, 0, 64, 48, 16, 8192, 0, 0, 544, 8248, 140, 0, 0, 324}},
    {"saxpy/throttled", {1157, 544, 17408, 4, 0, 64, 0, 64, 48, 16, 8192, 0, 0, 544, 8248, 140, 0, 0, 324}},
    {"reduce/baseline", {2725, 1660, 49652, 4, 0, 64, 0, 65, 49, 16, 8320, 0, 0, 1660, 15956, 1588, 900, 0, 1696}},
    {"reduce/vt", {2725, 1660, 49652, 4, 0, 64, 0, 65, 49, 16, 8320, 0, 0, 1660, 15956, 1588, 900, 0, 1696}},
    {"reduce/throttled", {2725, 1660, 49652, 4, 0, 64, 0, 65, 49, 16, 8320, 0, 0, 1660, 15956, 1588, 900, 0, 1696}},
    {"stencil/baseline", {729, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 4588, 68, 0, 0, 376}},
    {"stencil/vt", {729, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 4588, 68, 0, 0, 376}},
    {"stencil/throttled", {729, 800, 25578, 8, 0, 39, 0, 32, 16, 16, 4096, 0, 0, 800, 4588, 68, 0, 0, 376}},
    {"spmv/baseline", {2679, 1016, 25817, 4, 1034, 142, 2, 113, 97, 16, 14464, 0, 0, 1016, 12676, 6205, 0, 0, 1535}},
    {"spmv/vt", {2679, 1016, 25817, 4, 1034, 142, 2, 113, 97, 16, 14464, 0, 0, 1016, 12676, 6205, 0, 0, 1535}},
    {"spmv/throttled", {2679, 1016, 25817, 4, 1034, 142, 2, 113, 97, 16, 14464, 0, 0, 1016, 12676, 6205, 0, 0, 1535}},
    {"bfs/baseline", {1034, 640, 20480, 8, 509, 64, 48, 16, 0, 16, 2048, 0, 0, 640, 6140, 1045, 0, 0, 447}},
    {"bfs/vt", {1034, 640, 20480, 8, 509, 64, 48, 16, 0, 16, 2048, 0, 0, 640, 6140, 1045, 0, 0, 447}},
    {"bfs/throttled", {1034, 640, 20480, 8, 509, 64, 48, 16, 0, 16, 2048, 0, 0, 640, 6140, 1045, 0, 0, 447}},
    {"histogram/baseline", {2342, 472, 15104, 2, 0, 32, 190, 40, 24, 16, 5120, 0, 0, 472, 8763, 101, 0, 0, 9400}},
    {"histogram/vt", {2342, 472, 15104, 2, 0, 32, 190, 40, 24, 16, 5120, 0, 0, 472, 8763, 101, 0, 0, 9400}},
    {"histogram/throttled", {2342, 472, 15104, 2, 0, 32, 190, 40, 24, 16, 5120, 0, 0, 472, 8763, 101, 0, 0, 9400}},
    {"transpose/baseline", {775, 928, 29696, 4, 0, 64, 0, 32, 16, 16, 4096, 0, 0, 928, 4568, 208, 16, 0, 480}},
    {"transpose/vt", {775, 928, 29696, 4, 0, 64, 0, 32, 16, 16, 4096, 0, 0, 928, 4568, 208, 16, 0, 480}},
    {"transpose/throttled", {775, 928, 29696, 4, 0, 64, 0, 32, 16, 16, 4096, 0, 0, 928, 4568, 208, 16, 0, 480}},
    {"hotspot/baseline", {744, 703, 21650, 4, 0, 36, 0, 30, 14, 16, 3840, 0, 0, 703, 4585, 296, 0, 0, 368}},
    {"hotspot/vt", {744, 703, 21650, 4, 0, 36, 0, 30, 14, 16, 3840, 0, 0, 703, 4585, 296, 0, 0, 368}},
    {"hotspot/throttled", {744, 703, 21650, 4, 0, 36, 0, 30, 14, 16, 3840, 0, 0, 703, 4585, 296, 0, 0, 368}},
    {"kmeans/baseline", {1423, 2928, 93696, 4, 488, 68, 0, 65, 49, 16, 8320, 0, 0, 2928, 4991, 2899, 0, 0, 566}},
    {"kmeans/vt", {1423, 2928, 93696, 4, 488, 68, 0, 65, 49, 16, 8320, 0, 0, 2928, 4991, 2899, 0, 0, 566}},
    {"kmeans/throttled", {1423, 2928, 93696, 4, 488, 68, 0, 65, 49, 16, 8320, 0, 0, 2928, 4991, 2899, 0, 0, 566}},
    {"blackscholes/baseline", {749, 464, 14848, 4, 0, 16, 0, 16, 0, 16, 2048, 0, 0, 464, 4600, 548, 0, 0, 380}},
    {"blackscholes/vt", {749, 464, 14848, 4, 0, 16, 0, 16, 0, 16, 2048, 0, 0, 464, 4600, 548, 0, 0, 380}},
    {"blackscholes/throttled", {749, 464, 14848, 4, 0, 16, 0, 16, 0, 16, 2048, 0, 0, 464, 4600, 548, 0, 0, 380}},
    {"needle/baseline", {10855, 2648, 84736, 8, 0, 192, 0, 192, 176, 16, 24576, 0, 0, 2648, 80204, 3616, 0, 0, 372}},
    {"needle/vt", {10855, 2648, 84736, 8, 0, 192, 0, 192, 176, 16, 24576, 0, 0, 2648, 80204, 3616, 0, 0, 372}},
    {"needle/throttled", {10855, 2648, 84736, 8, 0, 192, 0, 192, 176, 16, 24576, 0, 0, 2648, 80204, 3616, 0, 0, 372}},
    {"mummer/baseline", {9839, 1448, 46336, 8, 1, 121, 1, 102, 3, 99, 13056, 0, 0, 1448, 73971, 1754, 0, 0, 1539}},
    {"mummer/vt", {9839, 1448, 46336, 8, 1, 121, 1, 102, 3, 99, 13056, 0, 0, 1448, 73971, 1754, 0, 0, 1539}},
    {"mummer/throttled", {9839, 1448, 46336, 8, 1, 121, 1, 102, 3, 99, 13056, 0, 0, 1448, 73971, 1754, 0, 0, 1539}},
    {"bitonic/baseline", {4423, 12224, 283648, 2, 0, 16, 0, 16, 0, 16, 2048, 0, 0, 12224, 2252, 2266, 780, 0, 17862}},
    {"bitonic/vt", {4423, 12224, 283648, 2, 0, 16, 0, 16, 0, 16, 2048, 0, 0, 12224, 2252, 2266, 780, 0, 17862}},
    {"bitonic/throttled", {4423, 12224, 283648, 2, 0, 16, 0, 16, 0, 16, 2048, 0, 0, 12224, 2252, 2266, 780, 0, 17862}},
    {"matmul/baseline", {3496, 12192, 390144, 4, 64, 192, 0, 64, 48, 16, 8192, 0, 0, 12192, 10988, 4328, 64, 0, 396}},
    {"matmul/vt", {3496, 12192, 390144, 4, 64, 192, 0, 64, 48, 16, 8192, 0, 0, 12192, 10988, 4328, 64, 0, 396}},
    {"matmul/throttled", {3496, 12192, 390144, 4, 64, 192, 0, 64, 48, 16, 8192, 0, 0, 12192, 10988, 4328, 64, 0, 396}},
    {"pathfinder/baseline", {2189, 1760, 56320, 2, 0, 64, 0, 64, 48, 16, 8192, 0, 0, 1760, 6684, 132, 8, 0, 8928}},
    {"pathfinder/vt", {2189, 1760, 56320, 2, 0, 64, 0, 64, 48, 16, 8192, 0, 0, 1760, 6684, 132, 8, 0, 8928}},
    {"pathfinder/throttled", {2189, 1760, 56320, 2, 0, 64, 0, 64, 48, 16, 8192, 0, 0, 1760, 6684, 132, 8, 0, 8928}},
};
// clang-format on

/** Workload x machine grid: every VASM benchmark kernel in the suite
 *  under all three machine shapes. */
class MicrocodeBitIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, Machine>>
{};

TEST_P(MicrocodeBitIdentity, MatchesLegacyInterpreter)
{
    const auto &[workload, machine] = GetParam();
    const std::string label = workload + "/" + toString(machine);
    // A case without a row fails on the size check in expectPinned.
    std::span<const test::Pinned> want;
    for (const test::Pinned &row : kLegacy) {
        if (label == row.label)
            want = {&row, 1};
    }
    const GpuConfig cfg = machineConfig(machine);
    test::expectPinned(
        {{label, [&] { return test::runOn(cfg, workload); }}}, want);
}

std::string
gridName(const ::testing::TestParamInfo<
         std::tuple<std::string, Machine>> &info)
{
    return std::get<0>(info.param) + "_" +
           toString(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, MicrocodeBitIdentity,
    ::testing::Combine(::testing::ValuesIn(benchmarkNames()),
                       ::testing::Values(Machine::Baseline, Machine::Vt,
                                         Machine::Throttled)),
    gridName);

} // namespace
} // namespace vtsim
