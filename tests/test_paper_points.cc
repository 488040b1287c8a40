/**
 * @file
 * Tests of the paper campaign's point table (bench/paper_campaign.hh):
 * each distinct simulation is one entry, every point an artifact reads
 * is declared, and a change to any field that reaches runExperiment
 * makes a different entry.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "paper_campaign.hh"
#include "workloads/app_profile.hh"

namespace tb {
namespace bench {
namespace {

using harness::ConfigKind;

TEST(PaperPoints, NoTwoEntriesAreEqual)
{
    const PointTable table = paperTable();
    const auto& points = table.points();
    std::set<std::string> labels;
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j)
            EXPECT_FALSE(points[i] == points[j]) << i << " == " << j;
        EXPECT_TRUE(labels.insert(points[i].label()).second)
            << points[i].label();
    }
}

TEST(PaperPoints, DistinctEntryCountIsPinned)
{
    // 50 figure points + the ablations' non-default arms, scaling's
    // 4..32-node pairs and the seed sweep's seeds 2..8. A change here
    // means an artifact gained, lost or stopped sharing a point.
    EXPECT_EQ(paperTable().points().size(), 156u);
}

TEST(PaperPoints, FigureMatrixKeepsIndicesZeroToFortyNine)
{
    const PointTable table = paperTable();
    const auto& points = table.points();
    const ConfigKind kinds[] = {ConfigKind::Baseline,
                                ConfigKind::ThriftyHalt,
                                ConfigKind::OracleHalt, ConfigKind::Thrifty,
                                ConfigKind::Ideal};
    const auto apps = workloads::paperApps();
    ASSERT_GE(points.size(), apps.size() * 5);
    for (std::size_t i = 0; i < apps.size() * 5; ++i) {
        EXPECT_EQ(points[i], paperPoint(apps[i / 5].name, kinds[i % 5]))
            << i << ": " << points[i].label();
    }
}

/** A result for entry @p i (= @p p) with values unlike the recording
 *  placeholders', yet safe for every renderer to divide by. */
harness::ExperimentResult
fakeResult(const PaperPoint& p, std::size_t i)
{
    harness::ExperimentResult r;
    r.app = p.app;
    r.config = harness::configName(p.kind);
    r.execTime = 1000 + i;
    r.energy.fill(1.0 + static_cast<double>(i));
    r.time.fill(250);
    r.threads = 64;
    return r;
}

TEST(PaperPoints, EveryLookupIsAnEntry)
{
    // The table records the points each renderer reads from
    // placeholder results; reading other values must not make a
    // renderer read a point the table lacks (PointResults throws
    // std::out_of_range).
    const PointTable table = paperTable();
    std::vector<harness::ExperimentResult> results;
    for (std::size_t i = 0; i < table.points().size(); ++i)
        results.push_back(fakeResult(table.points()[i], i));
    const PointResults view(table, results);
    for (const auto& a : paperArtifacts()) {
        try {
            EXPECT_FALSE(a.render(view).empty()) << a.name;
        } catch (const std::out_of_range& e) {
            ADD_FAILURE() << a.name << ": " << e.what();
        }
    }
    PaperPoint missing = paperPoint("Ocean", ConfigKind::Ideal);
    missing.dim = 3;
    EXPECT_THROW(view(missing), std::out_of_range);
}

TEST(PaperPoints, EachThriftyFieldMakesADistinctKey)
{
    const PaperPoint preset = paperPoint("Ocean", ConfigKind::Thrifty);
    std::vector<PaperPoint> variants(6, preset);
    variants[0].thrifty.overpredictionThreshold = 0.05;
    variants[1].thrifty.underpredictionFilter = 3.0;
    variants[2].thrifty.predictorKind = "moving-average";
    variants[3].thrifty.oracle = true;
    variants[4].thrifty.states = power::SleepStateTable::haltOnly();
    variants[5].thrifty.wakeup = thrifty::WakeupPolicy::Internal;

    PointTable t;
    EXPECT_EQ(t.add(preset), 0u);
    for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_FALSE(variants[i] == preset) << i;
        EXPECT_EQ(t.add(variants[i]), i + 1) << variants[i].label();
    }

    // An override equal to the preset is the preset's entry, and a
    // Baseline point carries no thrifty configuration.
    PaperPoint same = preset;
    same.thrifty.overpredictionThreshold = 0.10;
    EXPECT_EQ(t.add(same), 0u);
    EXPECT_EQ(paperPoint("Ocean", ConfigKind::Baseline).thrifty,
              thrifty::ThriftyConfig{});
}

TEST(PaperPoints, SystemFieldsMakeDistinctKeys)
{
    const PaperPoint base = paperPoint("Barnes", ConfigKind::Baseline);
    PaperPoint dim = base, seed = base, hop = base;
    dim.dim = 4;
    seed.seed = 2;
    hop.threeHop = true;
    PointTable t;
    for (const PaperPoint& p : {base, dim, seed, hop})
        t.add(p);
    EXPECT_EQ(t.points().size(), 4u);
    EXPECT_EQ(hop.system().memory.threeHopForwarding, true);
    EXPECT_EQ(seed.system().seed, 2u);
    EXPECT_EQ(dim.system().numNodes(), 16u);
}

} // namespace
} // namespace bench
} // namespace tb
