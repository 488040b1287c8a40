/**
 * @file
 * Campaign supervisor: continue-on-error semantics for sweep
 * campaigns.
 *
 * ParallelCampaignRunner shards independent points across threads but
 * treats every point as infallible: failures surface as one exception
 * after the join. superviseCampaign() runs each point through that
 * runner and classifies every point outcome (ok / exception /
 * checker-violation) into a failure manifest with a one-line repro
 * command, so one bad point never hides the others.
 *
 * Each point runs once, in this process, to completion: the campaign
 * returns only after every point has returned. Simulations are
 * deterministic, so a failed point would fail the same way again; the
 * manifest's repro command is the way to rerun it. A point writes its
 * typed result into a slot the caller owns, indexed by point, and the
 * caller emits the slots in order. A crashing point kills the process,
 * and a hung point hangs it; the hang bound is the caller's (the CI
 * step timeout, ctest's TIMEOUT), and `--only-point` finds the point.
 */

#ifndef TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_
#define TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace tb {
namespace harness {

/** Classification of one supervised point. */
enum class PointOutcome
{
    Ok,               ///< point completed, result written
    Exception,        ///< threw (FatalError or other std::exception)
    CheckerViolation, ///< threw PanicError (protocol/liveness checker)
};

/** Short lower-case name ("ok", "exception", ...) of @p o. */
const char* outcomeName(PointOutcome o);

/** What happened to one point (indexed like the campaign). */
struct PointRecord
{
    PointOutcome outcome = PointOutcome::Ok;
    std::string message;      ///< failure diagnostic ("" when ok)
    std::string repro;        ///< one-line repro command ("" if none)
};

/** Aggregated result of a supervised campaign. */
struct SupervisorReport
{
    std::vector<PointRecord> points;

    /** Points with the given outcome. */
    std::size_t count(PointOutcome o) const;
    /** Failed points (exception/checker). */
    std::size_t failures() const;
    /** No failures. */
    bool ok() const { return failures() == 0; }

    /**
     * Failure manifest: one JSON line per non-ok point with its
     * outcome, diagnostic and repro command.
     */
    void writeManifest(std::ostream& os,
                       const std::string& campaign) const;

    /**
     * Supervisor counters as a single campaign-JSON line
     * (`"kind": "supervisor"`), the shape scripts/compare_bench.py
     * surfaces next to the benchmark metrics.
     */
    std::string summaryJson(const std::string& campaign) const;
};

/** The work and metadata of one campaign's points. */
struct PointTask
{
    /**
     * Run point i and write its result into the caller's slot i.
     * Required. Throwing marks the point failed.
     */
    std::function<void(std::size_t)> run;
    /** One-line repro command for point i. Optional. */
    std::function<std::string(std::size_t)> repro;
};

/**
 * Run all @p count points of @p task on @p jobs worker threads (0 and
 * 1 both mean "run inline") and return once every point has returned.
 * Never throws for point failures: every point is classified in the
 * returned report.
 */
SupervisorReport superviseCampaign(unsigned jobs, std::size_t count,
                                   const PointTask& task);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_
