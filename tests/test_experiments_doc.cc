/**
 * @file
 * EXPERIMENTS.md follows ci/golden: every `N.NN×` ratio the write-up
 * quotes under a heading that names a figure binary must appear, as
 * `N.NNx`, in that binary's committed golden output. A timing-model
 * change that regenerates the goldens therefore fails here until the
 * prose is updated with it.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#ifndef VTSIM_SOURCE_DIR
#define VTSIM_SOURCE_DIR "."
#endif

namespace vtsim {
namespace {

std::string
readSourceFile(const std::string &relative)
{
    std::ifstream in(std::string(VTSIM_SOURCE_DIR) + "/" + relative,
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << relative;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(ExperimentsDoc, RatiosMatchGoldenOutputs)
{
    std::istringstream doc(readSourceFile("EXPERIMENTS.md"));
    // A heading names its binary in backticks:
    //   ## FIG-3 — headline speedup (`fig3_vt_speedup`)
    const std::regex binary_re("^#+ .*`([a-z0-9_]+)`");
    const std::regex ratio_re("([0-9]+\\.[0-9]{2})×");

    std::string binary;
    std::string golden;
    std::size_t sections = 0;
    std::vector<std::string> missing;
    std::size_t checked = 0;
    std::string line;
    while (std::getline(doc, line)) {
        std::smatch m;
        if (!line.empty() && line[0] == '#') {
            binary.clear();
            if (std::regex_search(line, m, binary_re)) {
                binary = m[1];
                const std::string path = "ci/golden/" + binary + ".out";
                ASSERT_TRUE(std::filesystem::exists(
                    std::string(VTSIM_SOURCE_DIR) + "/" + path))
                    << line << ": no " << path;
                golden = readSourceFile(path);
                ++sections;
            }
            continue;
        }
        if (binary.empty())
            continue;
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            ratio_re);
             it != std::sregex_iterator(); ++it) {
            ++checked;
            const std::string ratio = (*it)[1].str() + "x";
            if (golden.find(ratio) == std::string::npos)
                missing.push_back(binary + ": " + ratio + " in \"" +
                                  line + "\"");
        }
    }

    // Every figure and extension binary has a section, so the check
    // cannot pass by losing the headings it keys on.
    EXPECT_EQ(sections, 19u);
    EXPECT_GE(checked, 40u);
    for (const std::string &m : missing)
        ADD_FAILURE() << "EXPERIMENTS.md quotes a ratio its golden "
                         "file does not print: "
                      << m;
}

} // namespace
} // namespace vtsim
