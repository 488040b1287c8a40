/**
 * @file
 * Tests of the campaign artifact helpers: the FNV-1a checksum, atomic
 * artifact writes, and the lossless one-line ExperimentResult
 * serialization that carries a point's result from its campaign
 * attempt to the report renderers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/campaign_journal.hh"
#include "harness/experiment.hh"
#include "harness/result_serde.hh"
#include "sim/logging.hh"
#include "workloads/app_profile.hh"

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

TEST(ResultSerde, RealExperimentRoundTripsLosslessly)
{
    workloads::AppProfile app = workloads::appByName("Radiosity");
    app.iterations = 3;
    harness::SystemConfig sys = harness::SystemConfig::small(2);
    sys.seed = 5;
    const harness::ExperimentResult r =
        harness::runExperiment(sys, app, harness::ConfigKind::Thrifty);

    const std::string line = harness::serializeResult(r);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const harness::ExperimentResult back =
        harness::deserializeResult(line);

    EXPECT_EQ(back.app, r.app);
    EXPECT_EQ(back.config, r.config);
    EXPECT_EQ(back.execTime, r.execTime);
    EXPECT_EQ(back.totalEnergy(), r.totalEnergy());
    EXPECT_EQ(back.sync.instances, r.sync.instances);
    EXPECT_EQ(back.sync.sleeps, r.sync.sleeps);
    EXPECT_EQ(back.sync.spins, r.sync.spins);

    // Idempotence covers every field the line carries, bit for bit —
    // the byte-identical campaign artifact rests on exactly this.
    EXPECT_EQ(harness::serializeResult(back), line);
}

TEST(ResultSerde, EscapedStringsSurviveJournalRoundTrip)
{
    // The serde escapes strings with obs::JsonWriter's policy; every
    // escape class it can emit must come back byte-exact through a
    // serialize -> deserialize cycle.
    harness::ExperimentResult r;
    r.app = "quote\" slash\\ nl\n tab\t cr\r ctl\x01 end";
    r.config = "Thrifty";
    r.execTime = 123;
    r.threads = 4;
    r.faultSpec = "spec with \"quotes\" and \\u0007: \x07";

    const std::string line = harness::serializeResult(r);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const harness::ExperimentResult back =
        harness::deserializeResult(line);
    EXPECT_EQ(back.app, r.app);
    EXPECT_EQ(back.faultSpec, r.faultSpec);
    EXPECT_EQ(harness::serializeResult(back), line);
}

TEST(ResultSerde, RejectsMalformedInput)
{
    EXPECT_THROW(harness::deserializeResult(""), FatalError);
    EXPECT_THROW(harness::deserializeResult("BOGUS1 app=\"x\""),
                 FatalError);
    EXPECT_THROW(harness::deserializeResult("TBRESULT1 app=\"x\""),
                 FatalError);
}

} // namespace
} // namespace tb
