/**
 * @file
 * Campaign worker client: leases points from a CampaignService and
 * streams artifacts back (docs/ROBUSTNESS.md, "Distributed
 * campaigns").
 *
 * A worker is deliberately stateless about the campaign: it knows the
 * point space (count + per-point config hashes) and how to execute a
 * point; everything else — what to run next, retry budgets, whether
 * the work already exists in the journal or cache — lives in the
 * daemon. That is what makes a SIGKILLed worker free: it held only
 * leases, and leases come back.
 *
 * While a point simulates, a heartbeat thread keeps the connection
 * demonstrably alive at the daemon-announced interval; a worker wedged
 * inside a simulation stops heartbeating and is declared dead after
 * kHeartbeatMisses intervals, bounding the daemon's exposure without
 * any worker-side watchdog.
 */

#ifndef TB_SVC_WORKER_HH_
#define TB_SVC_WORKER_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/thread_safety.hh"
#include "svc/frame.hh"
#include "svc/net_faults.hh"

namespace tb {
namespace svc {

/** One worker process's configuration. */
struct WorkerOptions
{
    std::string connect;           ///< unix:PATH or tcp:HOST:PORT
    std::string name;              ///< announced id; "" = "pid@host"
    std::size_t count = 0;         ///< point-space size
    std::vector<std::uint64_t> keys; ///< per-point config hashes
    /// How long to keep retrying the initial connect. Workers are
    /// typically launched alongside the daemon; this absorbs the
    /// daemon's startup (journal replay, cache scan) without the
    /// launcher needing sleeps.
    std::uint64_t connectWaitMs = 5000;
    /// Budget for transparent reconnection after losing an
    /// established daemon socket mid-campaign: long enough to ride
    /// out a daemon SIGKILL + `--serve --resume` restart. 0 restores
    /// the old behaviour (treat daemon loss as campaign-over).
    std::uint64_t reconnectWaitMs = 5000;
    /// Deterministic network fault injection over this worker's
    /// socket (--net-faults; all-zero = clean transport).
    NetFaultSpec netFaults;
};

/** Client-side counters (smoke tests assert on these). */
struct WorkerStats
{
    std::uint64_t leases = 0;
    std::uint64_t results = 0;
    std::uint64_t pointErrors = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t noWorkWaits = 0;
    std::uint64_t reconnects = 0; ///< successful re-handshakes
};

/** Lease/execute/report loop of one worker process. */
class CampaignWorker
{
  public:
    explicit CampaignWorker(WorkerOptions opts);
    ~CampaignWorker();

    CampaignWorker(const CampaignWorker&) = delete;
    CampaignWorker& operator=(const CampaignWorker&) = delete;

    /**
     * Connect, handshake, then lease and execute points via @p fn
     * until the daemon reports the campaign Done. @p fn returns the
     * point's serialized artifact; exceptions become PointError
     * frames classified like the local supervisor (PanicError ->
     * checker-violation, anything else -> exception). A lost daemon
     * socket is survivable: the worker finishes any in-flight point
     * locally, reconnects under deterministic exponential backoff
     * (bounded by reconnectWaitMs), re-announces itself by name, and
     * resubmits the unacknowledged report. Returns true on a clean
     * Done (or when the daemon stays gone past the reconnect budget —
     * the campaign presumably ended); false (with a diagnostic in
     * @p err) on rejection or a protocol-fatal exchange.
     */
    bool run(const std::function<std::string(std::size_t)>& fn,
             std::string* err);

    const WorkerStats& stats() const { return stats_; }
    std::uint64_t workerId() const { return workerId_; }

    /** Injected-fault counters (the --net-faults stderr line). */
    const NetFaultCounters& faultCounters() const
    {
        return transport_.counters();
    }

    /** Announced identity (the pid@host default when unset). */
    const std::string& name() const { return opts_.name; }

  private:
    /** A locally finished point whose report the daemon has not yet
     *  acknowledged; survives reconnects until acked. */
    struct PendingReport
    {
        bool valid = false;
        std::size_t point = 0;
        FrameType type = FrameType::Result;
        std::string payload;
    };

    /** 1 = handshake complete, 0 = daemon unreachable (retryable),
     *  -1 = protocol-fatal (rejected / malformed ack), 2 = the daemon
     *  answered Done: the campaign resolved before this worker was
     *  admitted. */
    int handshake(std::uint64_t waitMs, std::string* err);
    /** 1 = reconnected, 0 = budget exhausted, -1 = fatal. */
    int reconnect(std::string* err);
    void dropConnection();
    void executePoint(
        std::size_t point,
        const std::function<std::string(std::size_t)>& fn);
    bool sendLocked(FrameType type, const std::string& payload);

    WorkerOptions opts_;
    int fd_ = -1;
    Mutex sendMu_; ///< main loop and heartbeat thread share the socket
    std::uint64_t workerId_ = 0;
    std::uint64_t heartbeatMs_ = 1000;
    WorkerStats stats_;
    FaultyTransport transport_;
    PendingReport pending_;
};

} // namespace svc
} // namespace tb

#endif // TB_SVC_WORKER_HH_
