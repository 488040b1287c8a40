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
 *    and barrier-episode ledger under the point index (thread-safe:
 *    workers deposit concurrently);
 *  - render/writeFiles() assemble the artifacts *in point order*, so
 *    the files are byte-identical no matter how `--jobs N` interleaved
 *    the points.
 *
 * The trace file is one Chrome trace_event JSON document (one
 * "process" per point, docs/OBSERVABILITY.md); the stats file is
 * JSONL, one `"kind": "stats"` object per point carrying the sync
 * counters, the full per-component machine statistics (through the
 * StatVisitor seam) and the per-episode prediction ledger.
 *
 * Coverage: the campaign benches deposit once a point has finished
 * without throwing, so the artifacts hold exactly the ok points.
 */

#ifndef TB_HARNESS_OBS_CAPTURE_HH_
#define TB_HARNESS_OBS_CAPTURE_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "sim/thread_safety.hh"

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

    ObsCapture(const CampaignOptions& opts, std::string campaign);

    bool traceEnabled() const { return !tracePath_.empty(); }
    bool statsEnabled() const { return !statsPath_.empty(); }
    bool active() const { return traceEnabled() || statsEnabled(); }

    /**
     * Wire @p scope into @p ro for point @p index: trace sink,
     * episode ledger and machine-stats visitor, as configured.
     */
    void arm(std::size_t index, RunOptions* ro, PointScope* scope);

    /**
     * Record point @p index's artifacts from @p scope and @p r.
     * @p label names the point in the trace ("Ocean/Thrifty").
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
     * Stdout-only, like the supervisor counter line: it covers
     * whatever the points deposited, so it describes the run and is
     * not part of the deterministic artifact.
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

    // Set once in the constructor, read-only afterwards — safe to
    // read without the lock.
    std::string campaign_;
    std::string tracePath_;
    unsigned traceMask_ = obs::kAllTraceCategories;
    std::string statsPath_;

    mutable Mutex mu_;
    /// Deposited per-point artifacts; workers insert concurrently,
    /// renderers walk in point order (std::map keeps artifacts
    /// byte-identical regardless of --jobs interleaving).
    std::map<std::size_t, Entry> entries_ TB_GUARDED_BY(mu_);
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_OBS_CAPTURE_HH_
