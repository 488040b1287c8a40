/**
 * @file
 * The campaign work-queue daemon (docs/ROBUSTNESS.md, "Distributed
 * campaigns").
 *
 * CampaignService owns one campaign's point space and serves it to
 * workers over the TBF1 frame protocol: workers take *leases* on
 * points, heartbeat while simulating, and stream artifacts back.
 * Worker failure is the designed-for case, not the exception:
 *
 *  - a dead socket (SIGKILL, OOM, network drop) returns the worker's
 *    leases to the queue immediately;
 *  - a silent worker (socket open, heartbeats stopped) is declared
 *    dead after kHeartbeatMisses missed intervals;
 *  - a hung simulation is bounded by the sim-independent lease
 *    deadline (--deadline-ms);
 *  - every loss consumes one attempt of the point's retry budget and
 *    re-eligibility follows the supervisor's deterministic
 *    exponential backoff;
 *  - duplicate completions from slow-but-alive workers are resolved
 *    idempotently against the journal's config-hash + FNV-1a
 *    checksum pair;
 *  - every observed failure is recorded in the per-worker crash
 *    ledger, which lands in the PR 4 failure manifest.
 *
 * In front of the queue sit the CampaignJournal (exactly PR 4's
 * resume semantics) and the content-addressed ResultCache: points
 * resolved from either are never leased, so a warm-cache re-run
 * performs zero simulations.
 *
 * The daemon is single-threaded: one poll() loop multiplexes the
 * listener and every worker connection, and frames demux through a
 * per-type handler table — the same registry-of-handlers idiom as
 * mp::MpEndpoint, with frame types in place of message tags.
 */

#ifndef TB_SVC_CAMPAIGND_HH_
#define TB_SVC_CAMPAIGND_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/campaign_journal.hh"
#include "harness/campaign_supervisor.hh"
#include "svc/crash_ledger.hh"
#include "svc/frame.hh"
#include "svc/result_cache.hh"
#include "svc/service_journal.hh"
#include "svc/work_queue.hh"

namespace tb {
namespace svc {

/** Missed heartbeat intervals after which a worker is declared dead. */
constexpr unsigned kHeartbeatMisses = 3;

/** Knobs of one daemon instance. */
struct ServiceOptions
{
    std::string listen;              ///< unix:PATH or tcp:HOST:PORT
    std::string campaign = "svc";    ///< name used in summaries
    std::uint64_t heartbeatMs = 1000;
    QueuePolicy queue;
};

/** Daemon-side counters, emitted as a `"kind": "service"` line. */
struct ServiceStats
{
    std::uint64_t workersSeen = 0;
    std::uint64_t leases = 0;
    std::uint64_t leasesExpired = 0;
    std::uint64_t heartbeatTimeouts = 0;
    std::uint64_t disconnects = 0;       ///< with leases outstanding
    std::uint64_t protocolErrors = 0;
    std::uint64_t duplicates = 0;        ///< benign (matching) dups
    std::uint64_t duplicateMismatches = 0;
    std::uint64_t staleResults = 0;
    std::uint64_t resultsAccepted = 0;
    std::uint64_t journalHits = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;

    std::string summaryJson(const std::string& campaign) const;
};

/** Canonical fingerprint of a point-key table (Hello handshake). */
std::uint64_t fingerprintKeys(const std::vector<std::uint64_t>& keys);

/** One campaign's daemon. */
class CampaignService
{
  public:
    explicit CampaignService(ServiceOptions opts);
    ~CampaignService();

    CampaignService(const CampaignService&) = delete;
    CampaignService& operator=(const CampaignService&) = delete;

    /** Journal to consult/append (PR 4 resume); may be null. */
    void attachJournal(harness::CampaignJournal* journal)
    {
        journal_ = journal;
    }

    /** Content-addressed result cache; may be null. */
    void attachCache(ResultCache* cache) { cache_ = cache; }

    /**
     * Service journal making the daemon's scheduling state durable
     * (docs/ROBUSTNESS.md, "Daemon crash recovery"); may be null.
     * Must be open()ed by the caller; when it was opened with resume,
     * run() replays it into the work queue before serving.
     */
    void attachServiceJournal(ServiceJournal* journal)
    {
        svcJournal_ = journal;
    }

    /**
     * Per-point config hashes / workload seeds. When set (the
     * campaign-binary --serve mode), journal and cache resolve
     * before any worker connects and worker-reported keys are
     * verified against the table. When absent (generic tb_campaignd),
     * the table is uploaded by the first worker's Keys frame.
     */
    void setKeys(std::vector<std::uint64_t> keys);
    void setSeeds(std::vector<std::uint64_t> seeds)
    {
        seeds_ = std::move(seeds);
    }

    /**
     * Bind the listen address now rather than at run(), so a launcher
     * can start workers knowing their first connect lands; connections
     * queue until run() serves them. Throws FatalError when the
     * address is unusable. Idempotent.
     */
    void listen();

    /**
     * Serve all @p count points until each is Done or Failed (or
     * SIGINT), listening first if listen() was not called. Every
     * connection still queued at the end is admitted and sent Done,
     * and the listener is closed. Never throws for worker failures —
     * they are ledgered and retried. Throws FatalError only when the
     * listen address is unusable.
     */
    harness::SupervisorReport run(std::size_t count);

    /** Artifacts by point index ("" for failed/not-run points). */
    const std::vector<std::string>& results() const
    {
        return results_;
    }

    const ServiceStats& stats() const { return stats_; }
    const CrashLedger& ledger() const { return ledger_; }

  private:
    struct Connection;

    void preResolveStored();
    void recoverServiceState();
    void failPoint(std::size_t point, LeaseLoss loss,
                   harness::PointOutcome outcome,
                   const std::string& message, std::uint64_t nowMs);
    std::uint64_t nowMs() const;
    void acceptConnections();
    void serviceConnection(Connection* conn);
    void dispatchFrame(Connection* conn, const Frame& frame);
    void closeConnection(Connection* conn, LeaseLoss loss,
                         const std::string& detail);
    void failLeases(Connection* conn, LeaseLoss loss,
                    const std::string& detail);
    void checkDeadlines();
    void broadcastDone();
    bool send(Connection* conn, FrameType type,
              const std::string& payload);

    // Frame handlers (the per-type demux table, mp_endpoint-style).
    void onHello(Connection* conn, const Frame& f);
    void onKeys(Connection* conn, const Frame& f);
    void onLeaseRequest(Connection* conn, const Frame& f);
    void onHeartbeat(Connection* conn, const Frame& f);
    void onResult(Connection* conn, const Frame& f);
    void onPointError(Connection* conn, const Frame& f);
    void onGoodbye(Connection* conn, const Frame& f);

    ServiceOptions opts_;
    harness::CampaignJournal* journal_ = nullptr;
    ResultCache* cache_ = nullptr;
    ServiceJournal* svcJournal_ = nullptr;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> seeds_;
    bool haveKeys_ = false;
    std::uint64_t fingerprint_ = 0;

    int listenFd_ = -1;
    std::unique_ptr<WorkQueue> queue_;
    std::vector<std::string> results_;
    std::vector<std::unique_ptr<Connection>> conns_;
    std::map<FrameType,
             std::function<void(Connection*, const Frame&)>>
        handlers_;
    CrashLedger ledger_;
    ServiceStats stats_;
    std::uint64_t nextWorkerId_ = 1;
};

} // namespace svc
} // namespace tb

#endif // TB_SVC_CAMPAIGND_HH_
