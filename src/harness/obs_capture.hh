/**
 * @file
 * Campaign-level observability capture: `--trace` / `--stats-json`.
 *
 * ObsCapture owns the campaign-wide trace and stats artifacts and
 * hands each point a PointScope to record into:
 *
 *  - arm() wires a per-point TraceSink (Chrome pid = point index) and
 *    a JsonStatWriter into the point's RunOptions, and switches the
 *    per-sleep-episode ledger on;
 *  - deposit() collects the point's rendered events, machine stats
 *    and barrier-episode ledger into the point's own slot;
 *  - render/writeFiles() assemble the artifacts *in point order*, so
 *    the files are byte-identical no matter how `--jobs N` interleaved
 *    the points.
 *
 * Concurrency: the slots are sized once in the constructor and
 * deposit(i, ...) writes only slot i, the same index-disjoint
 * discipline as ParallelCampaignRunner's error slots, so workers
 * deposit concurrently without a lock. The runner's join is the
 * happens-before edge between the deposits and the renderers.
 *
 * The trace file is one Chrome trace_event JSON document (one
 * "process" per point, docs/OBSERVABILITY.md); the stats file is
 * JSONL, one `"kind": "stats"` object per point carrying the sync
 * counters, the full per-component machine statistics (through the
 * StatVisitor seam) and the per-episode prediction ledger.
 *
 * Coverage: the campaign benches deposit once a point has finished
 * without throwing, and write the files only when every point did.
 */

#ifndef TB_HARNESS_OBS_CAPTURE_HH_
#define TB_HARNESS_OBS_CAPTURE_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign_cli.hh"
#include "harness/experiment.hh"
#include "obs/json_writer.hh"
#include "obs/stat_writers.hh"
#include "obs/trace.hh"

namespace tb {
namespace harness {

/** Collects `--trace` / `--stats-json` artifacts for one campaign. */
class ObsCapture
{
  public:
    /** Per-point recording state; must outlive the point's run. */
    struct PointScope
    {
        std::unique_ptr<obs::TraceSink> sink;
        std::ostringstream machineJson;
        std::unique_ptr<obs::JsonWriter> writer;
        std::unique_ptr<obs::JsonStatWriter> visitor;
    };

    /** @param runs Capture slots: one per run the campaign arms. */
    ObsCapture(const CampaignOptions& opts, std::string campaign,
               std::size_t runs);

    bool traceEnabled() const { return !tracePath_.empty(); }
    bool statsEnabled() const { return !statsPath_.empty(); }
    bool active() const { return traceEnabled() || statsEnabled(); }

    /**
     * Wire @p scope into @p ro for point @p index: trace sink,
     * episode ledger and machine-stats visitor, as configured.
     */
    void arm(std::size_t index, RunOptions* ro, PointScope* scope);

    /**
     * Record point @p index's artifacts from @p scope and @p r into
     * slot @p index (< runs). @p label names the point in the trace
     * ("Ocean/Thrifty").
     */
    void deposit(std::size_t index, const ExperimentResult& r,
                 PointScope* scope, const std::string& label);

    /** The assembled Chrome trace document ("" when tracing is off). */
    std::string renderTraceFile() const;

    /** The assembled stats JSONL ("" when --stats-json is off). */
    std::string renderStatsFile() const;

    /**
     * Aggregate prediction-accuracy line (`"kind": "prediction"`)
     * over every deposited episode; "" when --stats-json is off.
     * Stdout-only: it summarizes the run and is not part of the
     * deterministic artifact.
     */
    std::string predictionSummaryJson() const;

    /** Atomically write the configured trace/stats files. */
    void writeFiles() const;

  private:
    struct Entry
    {
        std::string label;
        std::string traceEvents;
        std::uint64_t dropped = 0;
        std::string statsLine;
        std::uint64_t episodes = 0;
        std::uint64_t earlyWakes = 0;
        std::uint64_t lateWakes = 0;
        double absErrTicks = 0.0;
    };

    std::string campaign_;
    std::string tracePath_;
    unsigned traceMask_ = obs::kAllTraceCategories;
    std::string statsPath_;

    /// One slot per run, filled by deposit(); renderers walk the
    /// filled slots in index order.
    std::vector<std::optional<Entry>> entries_;
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_OBS_CAPTURE_HH_
