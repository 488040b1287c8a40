/**
 * @file
 * Campaign supervisor: production-job-runner semantics for sweep
 * campaigns.
 *
 * ParallelCampaignRunner shards independent points across threads but
 * treats every point as infallible: the first exception aborts the
 * campaign, a hung point blocks it forever, and a crashing point kills
 * the process. The supervisor wraps the same claim-from-a-counter
 * execution model with the machinery a long campaign actually needs:
 *
 *  - a per-point wall-clock **deadline** enforced by a watchdog, so a
 *    hung point is classified and the campaign moves on;
 *  - **continue-on-error** execution that classifies every point
 *    outcome (ok / exception / checker-violation / timeout / crash)
 *    into a failure manifest with a one-line repro command;
 *  - optional **crash isolation** (`--isolate`): each point forks into
 *    a child process, so a SIGSEGV/abort is recorded as a point
 *    failure instead of taking down the campaign;
 *  - journaled **checkpoint/resume** via CampaignJournal: completed
 *    points are skipped on resume and their stored results replayed,
 *    keeping the final artifact byte-identical to an unbroken run.
 *
 * Each point runs once. Simulations are deterministic, so a failed
 * point would fail the same way again; the manifest's repro command
 * is the way to rerun it.
 *
 * Points return their artifact as a string (deposited by index,
 * emitted in order by the caller) because that is the only result
 * shape that survives both the process boundary of --isolate and the
 * disk boundary of resume.
 *
 * Caveats, by mode: without --isolate a timed-out point's thread is
 * *abandoned* (it cannot be killed portably) — the memory it may
 * still touch is kept alive by the supervisor, but a truly wedged
 * point still burns a core until process exit, and a crashing point
 * still kills the process. `--isolate` bounds both: the child is
 * SIGKILLed on deadline and dies alone on a crash.
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

#include "harness/campaign_journal.hh"

namespace tb {
namespace harness {

/** Classification of one supervised point. */
enum class PointOutcome
{
    Ok,               ///< point completed, result deposited
    Journaled,        ///< skipped: result replayed from the journal
    Exception,        ///< threw (FatalError or other std::exception)
    CheckerViolation, ///< threw PanicError (protocol/liveness checker)
    Timeout,          ///< exceeded the per-point deadline
    Crash,            ///< child died on a signal / unknown exit (--isolate)
    NotRun,           ///< never attempted (campaign interrupted)
};

/** Short lower-case name ("ok", "timeout", ...) of @p o. */
const char* outcomeName(PointOutcome o);

/** Knobs of one supervised campaign. */
struct SupervisorPolicy
{
    /** Worker threads; 0 and 1 both mean "run inline". */
    unsigned jobs = 1;
    /** Per-point wall-clock deadline; 0 = none. */
    std::uint64_t deadlineMs = 0;
    /** Fork every point into a child process. */
    bool isolate = false;
};

/** What happened to one point (indexed like the campaign). */
struct PointRecord
{
    PointOutcome outcome = PointOutcome::NotRun;
    std::string message;      ///< failure diagnostic ("" when ok)
    std::string repro;        ///< one-line repro command ("" if none)
};

/** Aggregated result of a supervised campaign. */
struct SupervisorReport
{
    std::vector<PointRecord> points;
    bool interrupted = false; ///< SIGINT stopped the campaign early

    /** Points with the given outcome. */
    std::size_t count(PointOutcome o) const;
    /** Failed points (exception/checker/timeout/crash). */
    std::size_t failures() const;
    /** No failures and not interrupted. */
    bool ok() const { return failures() == 0 && !interrupted; }

    /**
     * Failure manifest: one JSON line per non-ok point with its
     * outcome, diagnostic and repro command, plus a
     * trailing line when the campaign was interrupted.
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
    /**
     * Config hash of point i for journal validity (sweep shape,
     * flags, workload knobs). Optional; defaults to hashing the
     * index only.
     */
    std::function<std::uint64_t(std::size_t)> key;
    /** Workload seed of point i (recorded in the journal). Optional. */
    std::function<std::uint64_t(std::size_t)> seed;
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

    /** Journal to consult/append; may be inactive or null. */
    void attachJournal(CampaignJournal* journal) { journal_ = journal; }

    /**
     * Run all @p count points under the policy. Never throws for
     * point failures — every point is classified in the returned
     * report and successful results are available via results().
     */
    SupervisorReport run(std::size_t count, const PointTask& task);

    /** Artifacts of ok/journaled points, by index ("" otherwise). */
    const std::vector<std::string>& results() const { return results_; }

    /**
     * Install the campaign SIGINT handler: first ^C requests a stop
     * (workers finish their current point, the journal is already
     * on disk, the caller emits the manifest), a second ^C falls back
     * to default handling.
     */
    static void installSigintHandler();

    /** Whether a stop was requested (SIGINT). */
    static bool interruptRequested();

    /** Reset the interrupt flag (tests). */
    static void clearInterruptForTest();

    /** Join abandoned timed-out attempt threads (tests only). */
    void joinAbandonedForTest();

    /** One attempt's classification (exposed for the executor fns). */
    struct Attempt
    {
        PointOutcome outcome = PointOutcome::Exception;
        std::string payload; ///< result (ok) or diagnostic
    };

  private:
    Attempt runAttemptInProcess(const PointTask& task, std::size_t i);
    Attempt runAttemptForked(const PointTask& task, std::size_t i);
    void supervisePoint(const PointTask& task, std::size_t i,
                        SupervisorReport* report);

    SupervisorPolicy policy_;
    CampaignJournal* journal_ = nullptr;
    std::vector<std::string> results_;
    Mutex mu_;
    /// Timed-out attempt threads, kept alive until process exit.
    std::vector<std::thread> abandoned_ TB_GUARDED_BY(mu_);
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_CAMPAIGN_SUPERVISOR_HH_
