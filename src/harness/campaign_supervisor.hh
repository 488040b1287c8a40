/**
 * @file
 * Campaign supervisor: production-job-runner semantics for sweep
 * campaigns.
 *
 * ParallelCampaignRunner shards independent points across threads but
 * treats every point as infallible: failures surface as one exception
 * after the join and a hung point blocks it forever. The supervisor runs
 * each point through that runner with the machinery a long campaign
 * actually needs:
 *
 *  - a per-point wall-clock **deadline** enforced by a watchdog, so a
 *    hung point is classified and the campaign moves on;
 *  - **continue-on-error** execution that classifies every point
 *    outcome (ok / exception / checker-violation / timeout) into a
 *    failure manifest with a one-line repro command.
 *
 * Each point runs once, in this process. Simulations are
 * deterministic, so a failed point would fail the same way again; the
 * manifest's repro command is the way to rerun it.
 *
 * Points return their artifact as a string, deposited by index and
 * emitted in order by the caller. A timed-out attempt is abandoned,
 * not stopped (a thread cannot be killed portably), so it may write
 * only its own result box, never caller-owned state: the attempt
 * thread co-owns that box, and its late result is dropped. An
 * abandoned point still burns a core until process exit, and a
 * crashing point kills the process.
 */

#ifndef TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_
#define TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "sim/thread_safety.hh"

namespace tb {
namespace harness {

/** Classification of one supervised point. */
enum class PointOutcome
{
    Ok,               ///< point completed, result deposited
    Exception,        ///< threw (FatalError or other std::exception)
    CheckerViolation, ///< threw PanicError (protocol/liveness checker)
    Timeout,          ///< exceeded the per-point deadline
};

/** Short lower-case name ("ok", "timeout", ...) of @p o. */
const char* outcomeName(PointOutcome o);

/**
 * Largest per-point deadline, 2^31 - 1 ms (about 24.8 days). Larger
 * values would overflow the steady-clock arithmetic of the watchdog.
 */
constexpr std::uint64_t kMaxDeadlineMs = 2147483647;

/** Knobs of one supervised campaign. */
struct SupervisorPolicy
{
    /** Worker threads; 0 and 1 both mean "run inline". */
    unsigned jobs = 1;
    /** Per-point wall-clock deadline; 0 = none, at most kMaxDeadlineMs. */
    std::uint64_t deadlineMs = 0;
};

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
    /** Failed points (exception/checker/timeout). */
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
    /** Run point i, return its serialized artifact. Required. */
    std::function<std::string(std::size_t)> run;
    /** One-line repro command for point i. Optional. */
    std::function<std::string(std::size_t)> repro;
};

/** Supervised executor for a fixed-size set of independent points. */
class CampaignSupervisor
{
  public:
    explicit CampaignSupervisor(SupervisorPolicy policy = {})
        : policy_(policy)
    {}
    ~CampaignSupervisor();

    CampaignSupervisor(const CampaignSupervisor&) = delete;
    CampaignSupervisor& operator=(const CampaignSupervisor&) = delete;

    /**
     * Run all @p count points under the policy. Never throws for
     * point failures — every point is classified in the returned
     * report and successful results are available via results().
     */
    SupervisorReport run(std::size_t count, const PointTask& task);

    /** Artifacts of ok points, by index ("" otherwise). */
    const std::vector<std::string>& results() const { return results_; }

    /** Join abandoned timed-out attempt threads (tests only). */
    void joinAbandonedForTest();

    /** One attempt's classification. */
    struct Attempt
    {
        PointOutcome outcome = PointOutcome::Exception;
        std::string payload; ///< result (ok) or diagnostic
    };

  private:
    Attempt runAttempt(const PointTask& task, std::size_t i);
    void supervisePoint(const PointTask& task, std::size_t i,
                        SupervisorReport* report);

    SupervisorPolicy policy_;
    std::vector<std::string> results_;
    Mutex mu_;
    /// Timed-out attempt threads, kept alive until process exit.
    std::vector<std::thread> abandoned_ TB_GUARDED_BY(mu_);
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_
