/**
 * @file
 * Tests of the campaign artifact helpers: the FNV-1a checksum, atomic
 * artifact writes, and the one-line ExperimentResult digest.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign_journal.hh"
#include "harness/experiment.hh"
#include "harness/result_serde.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

using harness::fnv1a64;
using harness::writeFileAtomic;

std::string
tempPath(const std::string& name)
{
    const std::string p = testing::TempDir() + "tb_" + name;
    std::remove(p.c_str());
    return p;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Fnv1a64, ReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
    EXPECT_NE(fnv1a64("config-a"), fnv1a64("config-b"));
}

TEST(WriteFileAtomic, WritesAndReplacesWithoutTempResidue)
{
    const std::string path = tempPath("atomic.txt");
    writeFileAtomic(path, "first\n");
    EXPECT_EQ(slurp(path), "first\n");
    writeFileAtomic(path, "second, longer content\n");
    EXPECT_EQ(slurp(path), "second, longer content\n");
    // The staging file must not survive a successful rename.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(WriteFileAtomic, ThrowsOnUnwritablePath)
{
    EXPECT_THROW(
        writeFileAtomic("/nonexistent-dir/deep/artifact.json", "x"),
        FatalError);
}

TEST(ResultSerde, EveryFieldReachesTheLine)
{
    // The line is the point's digest: changing any field the report
    // renderers read, by as little as one ulp, must change it.
    harness::ExperimentResult base;
    base.app = "Radiosity";
    base.config = "Thrifty";
    base.execTime = 1000;
    base.threads = 4;
    for (std::size_t b = 0; b < base.energy.size(); ++b) {
        base.energy[b] = 0.1 * static_cast<double>(b + 1);
        base.time[b] = 100 * (b + 1);
    }
    base.sync.totalStallTicks = 500.0;
    base.sync.residualSpinTicks = 50.0;
    base.faultSpec = "seed=1";
    base.faultCounts = {{"drop-wake", 2}};

    using Result = harness::ExperimentResult;
    using Sync = thrifty::SyncStats;
    const auto bump = [](double& v) { v = std::nextafter(v, 1e300); };
    std::vector<std::pair<std::string, std::function<void(Result&)>>>
        cases = {
            {"app", [](Result& r) { r.app += "x"; }},
            {"config", [](Result& r) { r.config += "x"; }},
            {"execTime", [](Result& r) { ++r.execTime; }},
            {"threads", [](Result& r) { ++r.threads; }},
            {"totalStallTicks",
             [&](Result& r) { bump(r.sync.totalStallTicks); }},
            {"residualSpinTicks",
             [&](Result& r) { bump(r.sync.residualSpinTicks); }},
            {"faultSpec", [](Result& r) { r.faultSpec += "x"; }},
            {"faultCounts kind",
             [](Result& r) { r.faultCounts[0].first += "x"; }},
            {"faultCounts count",
             [](Result& r) { ++r.faultCounts[0].second; }},
            {"faultCounts entry",
             [](Result& r) { r.faultCounts.emplace_back("preempt", 0); }},
        };
    for (std::size_t b = 0; b < base.energy.size(); ++b) {
        cases.emplace_back("energy[" + std::to_string(b) + "]",
                           [&, b](Result& r) { bump(r.energy[b]); });
        cases.emplace_back("time[" + std::to_string(b) + "]",
                           [b](Result& r) { ++r.time[b]; });
    }
    const std::pair<const char*, std::uint64_t Sync::*> counters[] = {
        {"instances", &Sync::instances},
        {"arrivals", &Sync::arrivals},
        {"sleeps", &Sync::sleeps},
        {"spins", &Sync::spins},
        {"cutoffs", &Sync::cutoffs},
        {"filteredUpdates", &Sync::filteredUpdates},
        {"residualSpins", &Sync::residualSpins},
        {"watchdogFires", &Sync::watchdogFires},
        {"residualEscalations", &Sync::residualEscalations},
        {"quarantines", &Sync::quarantines},
        {"fallbackEpisodes", &Sync::fallbackEpisodes},
    };
    for (const auto& [name, field] : counters) {
        cases.emplace_back(name,
                           [field](Result& r) { ++(r.sync.*field); });
    }

    const std::string line = harness::serializeResult(base);
    for (const auto& [name, mutate] : cases) {
        Result r = base;
        mutate(r);
        EXPECT_NE(harness::serializeResult(r), line) << name;
    }
}

TEST(ResultSerde, EscapedStringsStayOnOneLine)
{
    harness::ExperimentResult r;
    r.app = "quote\" slash\\ nl\n tab\t cr\r ctl\x01 end";
    r.config = "Thrifty";
    r.faultSpec = "spec with \"quotes\" and \\u0007: \x07";

    const std::string line = harness::serializeResult(r);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line.find('\r'), std::string::npos);
}

} // namespace
} // namespace tb
