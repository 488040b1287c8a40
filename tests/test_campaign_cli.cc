/**
 * @file
 * Tests of the campaign benches' shared command line
 * (harness/campaign_cli.hh): the strict parse that turns every bad
 * option or value into a usage error with exit status 2.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "harness/campaign_cli.hh"

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
        {"--journal", "J", "--resume", "--isolate", "--deadline-ms",
         "5"});
    EXPECT_EQ(o.journalPath, "J");
    EXPECT_TRUE(o.resume);
    EXPECT_TRUE(o.policy.isolate);
    EXPECT_EQ(o.policy.deadlineMs, 5u);
    EXPECT_EQ(o.policy.jobs, 1u);
}

TEST(CampaignCli, LargestUnsignedValueIsAccepted)
{
    const CampaignOptions o =
        parseArgs({"--jobs", "4294967295", "--sim-partitions=8"});
    EXPECT_EQ(o.policy.jobs, 4294967295u);
    EXPECT_EQ(o.simPartitions, 8u);
}

TEST(CampaignCliDeathTest, UnsignedValuesDoNotWrap)
{
    // 2^32 + 1 used to be cast to 1 and run with one job.
    EXPECT_EXIT(parseArgs({"--jobs", "4294967297"}),
                testing::ExitedWithCode(2), "--jobs.*out of range");
    EXPECT_EXIT(parseArgs({"--jobs=4294967296"}),
                testing::ExitedWithCode(2), "--jobs.*out of range");
    EXPECT_EXIT(parseArgs({"--sim-threads", "4294967297"}),
                testing::ExitedWithCode(2),
                "--sim-threads.*out of range");
    EXPECT_EXIT(parseArgs({"--sim-partitions", "4294967304"}),
                testing::ExitedWithCode(2),
                "--sim-partitions.*out of range");
    EXPECT_EXIT(parseArgs({"--only-point", "9223372036854775808"}),
                testing::ExitedWithCode(2),
                "--only-point.*out of range");
}

TEST(CampaignCliDeathTest, RemovedFlagsAreUnknown)
{
    for (const char* flag :
         {"--serve", "--worker", "--cache", "--lease-ms",
          "--heartbeat-ms", "--worker-name", "--net-faults",
          "--reconnect-ms", "--retries", "--backoff-ms"}) {
        EXPECT_EXIT(parseArgs({flag, "1"}), testing::ExitedWithCode(2),
                    std::string("unknown option '") + flag + "'")
            << flag;
    }
}

} // namespace
} // namespace harness
} // namespace tb
