/**
 * @file
 * Tests of the campaign benches' shared command line
 * (harness/campaign_cli.hh): the strict parse that turns every bad
 * option or value into a usage error with exit status 2, and the
 * `--only-point` rerun that reports a failed point with exit status 1.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness/campaign_cli.hh"
#include "paper_campaign.hh"

namespace tb {
namespace harness {
namespace {

CampaignOptions
parseArgs(std::initializer_list<const char*> args)
{
    std::vector<char*> argv = {const_cast<char*>("campaign")};
    for (const char* a : args)
        argv.push_back(const_cast<char*>(a));
    return CampaignOptions::parse(static_cast<int>(argv.size()),
                                  argv.data(), /*allowQuick=*/true);
}

TEST(CampaignCli, SupervisorFlagsParse)
{
    const CampaignOptions o = parseArgs(
        {"--out", "A", "--jobs", "5", "--quick"});
    EXPECT_EQ(o.outPath, "A");
    EXPECT_EQ(o.jobs, 5u);
    EXPECT_EQ(o.onlyPoint, -1);
    EXPECT_TRUE(o.quick);
    EXPECT_EQ(o.reproFlags(), " --quick");
}

TEST(CampaignCli, LargestUnsignedValueIsAccepted)
{
    const CampaignOptions o = parseArgs(
        {"--jobs", "4294967295", "--only-point=9223372036854775807"});
    EXPECT_EQ(o.jobs, 4294967295u);
    EXPECT_EQ(o.onlyPoint, 9223372036854775807L);
}

TEST(CampaignCliDeathTest, UnsignedValuesDoNotWrap)
{
    // 2^32 + 1 used to be cast to 1 and run with one job.
    EXPECT_EXIT(parseArgs({"--jobs", "4294967297"}),
                testing::ExitedWithCode(2), "--jobs.*out of range");
    EXPECT_EXIT(parseArgs({"--jobs=4294967296"}),
                testing::ExitedWithCode(2), "--jobs.*out of range");
    // A point index past LONG_MAX would wrap negative and turn repro
    // mode off.
    EXPECT_EXIT(parseArgs({"--only-point", "18446744073709551615"}),
                testing::ExitedWithCode(2),
                "--only-point.*out of range");
    EXPECT_EXIT(parseArgs({"--only-point", "9223372036854775808"}),
                testing::ExitedWithCode(2),
                "--only-point.*out of range");
}

TEST(CampaignCliDeathTest, RemovedFlagsAreUnknown)
{
    for (const char* flag :
         {"--serve", "--worker", "--cache", "--lease-ms",
          "--heartbeat-ms", "--worker-name", "--net-faults",
          "--reconnect-ms", "--retries", "--backoff-ms",
          "--sim-threads", "--sim-partitions", "--isolate",
          "--deadline-ms", "--manifest"}) {
        EXPECT_EXIT(parseArgs({flag, "1"}), testing::ExitedWithCode(2),
                    std::string("unknown option '") + flag + "'")
            << flag;
    }
}

TEST(CampaignCliDeathTest, OnlyPointRejectsArtifactFlags)
{
    // A rerun prints one point to stdout; it used to exit 0 without
    // writing the --out file it was given.
    EXPECT_EXIT(parseArgs({"--only-point", "0", "--out", "F"}),
                testing::ExitedWithCode(2),
                "--only-point cannot be combined with --out");
    EXPECT_EXIT(parseArgs({"--out=F", "--only-point", "3"}),
                testing::ExitedWithCode(2),
                "--only-point cannot be combined with --out");
}

TEST(CampaignCliDeathTest, SwitchRejectsInlineValue)
{
    // A switch takes no value; an ignored inline value would turn
    // quick mode on for `--quick=no`.
    EXPECT_EXIT(parseArgs({"--quick=no"}), testing::ExitedWithCode(2),
                "option --quick takes no value");
    EXPECT_EXIT(parseArgs({"--quick="}), testing::ExitedWithCode(2),
                "option --quick takes no value");
}

/**
 * A failing `--only-point` rerun reports like a failed campaign point
 * (`point I: <what>` on stderr, after the point's label) and exits 1,
 * instead of letting the exception end the process. An unknown
 * application makes the point fail with a fatal error.
 */
TEST(CampaignCli, OnlyPointFailureExitsOne)
{
    CampaignOptions opts;
    opts.onlyPoint = 1;
    bench::PointTable table;
    table.add(bench::paperPoint("Volrend", ConfigKind::Baseline));
    table.add(bench::paperPoint("NoSuchApp", ConfigKind::ThriftyHalt));
    ObsCapture capture(opts, "only_point", table.points().size());
    testing::internal::CaptureStderr();
    const int rc = bench::runOnlyPaperPoint(table, opts, &capture);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 1);
    EXPECT_EQ(err.rfind("point 1: NoSuchApp/Thrifty-Halt\n"
                        "point 1: fatal: ",
                        0),
              0u)
        << err;

    EXPECT_TRUE(bench::runOnlyPoint(3, [] {}));
}

} // namespace
} // namespace harness
} // namespace tb
