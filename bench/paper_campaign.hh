/**
 * @file
 * The paper campaign's point table: every simulation behind Table 2,
 * Figures 5/6, the six ablations, the scaling study and the seed
 * sweep, each distinct one listed once.
 *
 * Each artifact's points go into one table; a point that two
 * artifacts need (Figures 5 and 6 read the same 50 runs, the ablations
 * reuse the figure's Baseline and default-Thrifty runs) is one entry,
 * because a PaperPoint holds by value everything that reaches
 * runExperiment. The campaign runs every entry once through
 * ParallelCampaignRunner, then each artifact renders itself by looking
 * its points up in the results.
 */

#ifndef TB_BENCH_PAPER_CAMPAIGN_HH_
#define TB_BENCH_PAPER_CAMPAIGN_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign_cli.hh"
#include "harness/experiment.hh"
#include "harness/obs_capture.hh"
#include "thrifty/thrifty_config.hh"

namespace tb {
namespace bench {

/**
 * One simulation: the system (hypercube dimension, workload seed,
 * forwarding style), the application, the configuration kind and the
 * effective thrifty configuration. Equal points run identically.
 */
struct PaperPoint
{
    unsigned dim = 6;        ///< 2^dim nodes
    std::uint64_t seed = 1;  ///< synthetic-workload seed
    bool threeHop = false;   ///< DASH-style three-hop forwarding
    std::string app;         ///< paperApps() name or "short+OS"
    harness::ConfigKind kind = harness::ConfigKind::Baseline;
    /** The configuration the run uses: the preset of @c kind unless
     *  an ablation overrides a field; default-constructed (and
     *  ignored) for Baseline. */
    thrifty::ThriftyConfig thrifty;

    bool operator==(const PaperPoint&) const = default;

    harness::SystemConfig system() const;

    /**
     * "Ocean/Thrifty" plus every field that differs from the paper's
     * 64-node, seed-1, hub machine and the kind's preset, e.g.
     * "Ocean/Thrifty cutoff=0.05".
     */
    std::string label() const;
};

/** @p app under @p kind's preset on the paper's 64-node machine. */
PaperPoint paperPoint(const std::string& app, harness::ConfigKind kind);

/** A campaign's entries, each distinct point once, in first-seen order. */
class PointTable
{
  public:
    /** Index of @p p, appended first when it is not yet an entry. */
    std::size_t add(const PaperPoint& p);

    /** Index of @p p; throws std::out_of_range when it is no entry. */
    std::size_t indexOf(const PaperPoint& p) const;

    const std::vector<PaperPoint>& points() const { return points_; }

  private:
    std::vector<PaperPoint> points_;
};

/**
 * An artifact's view of the campaign: the result of each point it
 * reads. Reading a point is also how an artifact declares it:
 * paperTable() renders every artifact once through a recording view,
 * which adds each point read to the table and answers with a
 * placeholder result. So a renderer must not choose which points to
 * read from result values.
 */
class PointResults
{
  public:
    /** Record every point read into @p table. */
    explicit PointResults(PointTable* table);

    /** The finished campaign: @p results[i] is entry i's result. */
    PointResults(const PointTable& table,
                 const std::vector<harness::ExperimentResult>& results)
        : table_(&table), results_(&results)
    {}

    /** The result of @p p; throws std::out_of_range when a finished
     *  campaign has no entry @p p. */
    const harness::ExperimentResult& operator()(const PaperPoint& p) const;

  private:
    PointTable* recording_ = nullptr;
    /// One placeholder per ConfigKind, indexed by it and named like a
    /// real run.
    std::vector<harness::ExperimentResult> placeholders_;
    const PointTable* table_ = nullptr;
    const std::vector<harness::ExperimentResult>* results_ = nullptr;
};

/** One paper artifact: a golden.txt pin and `--out DIR/<name>.txt`. */
struct Artifact
{
    const char* name;  ///< pin name
    const char* title; ///< banner title
    /** Whether the artifact file starts with the banner (stdout
     *  always does). */
    bool bannerInFile;
    /** The artifact's text after the banner. */
    std::string (*render)(const PointResults&);
};

/** The eleven artifacts, Figure 5 first. */
const std::vector<Artifact>& paperArtifacts();

/**
 * Every point the artifacts read, in the order paperArtifacts() first
 * reads them: the Figure 5 matrix comes first, so its points keep
 * indices 0-49 (app-major, B/H/O/T/I).
 */
PointTable paperTable();

/**
 * Run entry @p index (= @p p) with its `--trace` / `--stats-json`
 * capture slot @p index.
 */
harness::ExperimentResult runPaperPoint(const PaperPoint& p,
                                        std::size_t index,
                                        harness::ObsCapture* capture);

/**
 * `--only-point`: print entry opts.onlyPoint's label to stderr, run
 * it, print its serialized result to stdout and write the capture
 * files. Returns the exit code: 2 when the index is out of range, 1
 * when the point failed.
 */
int runOnlyPaperPoint(const PointTable& table,
                      const harness::CampaignOptions& opts,
                      harness::ObsCapture* capture);

} // namespace bench
} // namespace tb

#endif // TB_BENCH_PAPER_CAMPAIGN_HH_
