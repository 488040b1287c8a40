#include "svc/worker.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "harness/campaign_journal.hh"
#include "harness/campaign_supervisor.hh"
#include "harness/posix_io.hh"
#include "sim/logging.hh"
#include "svc/campaignd.hh"
#include "svc/net.hh"

namespace tb {
namespace svc {

namespace {

std::string
defaultWorkerName()
{
    char host[256] = "unknown";
    ::gethostname(host, sizeof(host) - 1);
    host[sizeof(host) - 1] = '\0';
    return std::to_string(::getpid()) + "@" + host;
}

/** Whether errno @p e means "the daemon is simply gone". */
bool
peerGone(int e)
{
    return e == EPIPE || e == ECONNRESET;
}

/** Whether a recvFrame return means the connection is gone (EOF or a
 *  peer-death errno) rather than a protocol-fatal condition. */
bool
lostFrame(int rc)
{
    return rc == 0 || (rc < 0 && peerGone(errno));
}

} // namespace

CampaignWorker::CampaignWorker(WorkerOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.name.empty())
        opts_.name = defaultWorkerName();
}

CampaignWorker::~CampaignWorker()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
CampaignWorker::sendLocked(FrameType type, const std::string& payload)
{
    LockGuard lock(sendMu_);
    return fd_ >= 0 && transport_.sendFrame(fd_, type, payload);
}

void
CampaignWorker::dropConnection()
{
    LockGuard lock(sendMu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

int
CampaignWorker::handshake(std::uint64_t waitMs, std::string* err)
{
    // Retry the connect while the daemon starts up (binds its socket,
    // replays its journal): workers and daemon are normally launched
    // together, and a bounded retry here beats sleeps in every
    // launcher script.
    const std::uint64_t stepMs = 100;
    for (std::uint64_t waited = 0;; waited += stepMs) {
        fd_ = connectTo(opts_.connect, err);
        if (fd_ >= 0)
            break;
        if (waited >= waitMs)
            return 0;
        harness::pollOne(-1, 0, static_cast<int>(stepMs));
    }

    // The handshake travels over the clean transport even under
    // --net-faults: a corrupted Hello would surface as a config
    // mismatch (Reject) and mask the fault as a campaign bug. Only
    // post-handshake traffic is fault-injected.
    std::string hello;
    appendU64(&hello, opts_.count);
    appendU64(&hello, fingerprintKeys(opts_.keys));
    appendString(&hello, opts_.name);
    if (!sendFrame(fd_, FrameType::Hello, hello)) {
        *err = "hello: " + errnoMessage(errno);
        dropConnection();
        return peerGone(errno) ? 0 : -1;
    }

    Frame f;
    const int rc = recvFrame(fd_, &f, err);
    if (rc <= 0) {
        if (rc == 0)
            *err = "daemon closed the connection during handshake";
        dropConnection();
        return lostFrame(rc) ? 0 : -1;
    }
    if (f.type == FrameType::Reject) {
        PayloadReader r(f.payload);
        *err = "rejected by daemon: " + r.str();
        dropConnection();
        return -1;
    }
    if (f.type == FrameType::Done) {
        dropConnection();
        return 2;
    }
    if (f.type != FrameType::HelloAck) {
        *err = std::string("expected hello-ack, got ") +
               frameTypeName(f.type);
        dropConnection();
        return -1;
    }
    PayloadReader r(f.payload);
    workerId_ = r.u64();
    heartbeatMs_ = r.u64();
    r.u64(); // leaseMs: informational
    const std::uint64_t flags = r.u64();
    if (!r.ok()) {
        *err = "malformed hello-ack";
        dropConnection();
        return -1;
    }
    if (heartbeatMs_ == 0)
        heartbeatMs_ = 1000;
    if (flags & kHelloAckWantKeys) {
        std::string keys;
        keys.reserve(8 * opts_.keys.size());
        for (std::uint64_t k : opts_.keys)
            appendU64(&keys, k);
        if (!sendFrame(fd_, FrameType::Keys, keys)) {
            *err = "keys upload: " + errnoMessage(errno);
            dropConnection();
            return peerGone(errno) ? 0 : -1;
        }
    }
    return 1;
}

int
CampaignWorker::reconnect(std::string* err)
{
    dropConnection();
    if (opts_.reconnectWaitMs == 0)
        return 0;
    // The daemon restart window: retry the full handshake under the
    // supervisor's deterministic exponential backoff, seeded by our
    // identity so a fleet of restarting workers does not stampede the
    // fresh daemon in lockstep. Identity is the name, not the old
    // workerId — the restarted daemon hands out new ids.
    harness::SupervisorPolicy sp;
    sp.backoffBaseMs = 100;
    sp.backoffCapMs = 2000;
    sp.seed = harness::fnv1a64(opts_.name);
    std::uint64_t waited = 0;
    for (unsigned attempt = 1;; ++attempt) {
        const std::uint64_t delay =
            harness::CampaignSupervisor::backoffDelayMs(sp, 0,
                                                        attempt + 1);
        if (waited + delay > opts_.reconnectWaitMs)
            return 0;
        harness::pollOne(-1, 0, static_cast<int>(delay));
        waited += delay;
        std::string hsErr;
        const int h = handshake(0, &hsErr);
        if (h == 2)
            return 0;
        if (h > 0) {
            ++stats_.reconnects;
            warn("campaign worker ", opts_.name, ": reconnected to ",
                 opts_.connect, " after ", attempt, " attempt(s)");
            return 1;
        }
        if (h < 0) {
            *err = hsErr;
            return -1;
        }
    }
}

void
CampaignWorker::executePoint(
    std::size_t point,
    const std::function<std::string(std::size_t)>& fn)
{
    // Heartbeat thread: proves liveness to the daemon while the
    // simulation runs. The condition variable both paces the interval
    // and lets the main thread stop it instantly once the point ends.
    std::mutex hbMu;
    std::condition_variable hbCv;
    bool finished = false;
    std::thread hb([&]() {
        std::unique_lock<std::mutex> lock(hbMu);
        for (;;) {
            if (hbCv.wait_for(
                    lock, std::chrono::milliseconds(heartbeatMs_),
                    [&]() { return finished; }))
                return;
            std::string p;
            appendU64(&p, point);
            if (!sendLocked(FrameType::Heartbeat, p))
                return; // socket died; the main recv will see it too
            ++stats_.heartbeats;
        }
    });

    harness::PointOutcome outcome = harness::PointOutcome::Ok;
    std::string payload;
    try {
        payload = fn(point);
    } catch (const PanicError& e) {
        outcome = harness::PointOutcome::CheckerViolation;
        payload = e.what();
    } catch (const std::exception& e) {
        outcome = harness::PointOutcome::Exception;
        payload = e.what();
    } catch (...) {
        outcome = harness::PointOutcome::Exception;
        payload = "unknown exception";
    }

    {
        std::lock_guard<std::mutex> lock(hbMu);
        finished = true;
    }
    hbCv.notify_all();
    hb.join();

    // Never send from here: stash the report so run() owns the
    // submit/ack exchange and can resubmit it after a reconnect. The
    // simulation's work survives any number of connection losses.
    pending_.valid = true;
    pending_.point = point;
    if (outcome == harness::PointOutcome::Ok) {
        std::string p;
        appendU64(&p, point);
        appendU64(&p, point < opts_.keys.size() ? opts_.keys[point]
                                                : 0);
        appendU64(&p, harness::fnv1a64(payload));
        appendString(&p, payload);
        pending_.type = FrameType::Result;
        pending_.payload = std::move(p);
    } else {
        std::string p;
        appendU64(&p, point);
        appendU64(&p, static_cast<std::uint64_t>(outcome));
        appendString(&p, payload);
        pending_.type = FrameType::PointError;
        pending_.payload = std::move(p);
    }
}

bool
CampaignWorker::run(
    const std::function<std::string(std::size_t)>& fn,
    std::string* err)
{
    harness::ignoreSigpipe();
    transport_.configure(opts_.netFaults, opts_.name);
    const int h = handshake(opts_.connectWaitMs, err);
    if (h == 2)
        return true; // nothing left to lease
    if (h <= 0)
        return false;

    for (;;) {
        if (fd_ < 0) {
            const int r = reconnect(err);
            if (r < 0)
                return false;
            if (r == 0) {
                // The daemon resolved the campaign (possibly via
                // another worker) and exited; it stayed unreachable
                // for the whole reconnect budget. Not a worker
                // failure: real daemon crashes surface in the
                // daemon's own exit status and artifacts.
                warn("campaign worker: daemon gone; assuming the "
                     "campaign ended");
                return true;
            }
        }

        if (pending_.valid) {
            // Submit the stashed report and wait for the ack; a lost
            // connection anywhere in the exchange routes back through
            // reconnect() with the report still pending.
            if (!sendLocked(pending_.type, pending_.payload)) {
                if (peerGone(errno)) {
                    dropConnection();
                    continue;
                }
                *err = "report for point " +
                       std::to_string(pending_.point) + ": " +
                       errnoMessage(errno);
                return false;
            }
            Frame ack;
            const int arc = transport_.recvFrame(fd_, &ack, err);
            if (lostFrame(arc)) {
                dropConnection();
                continue;
            }
            if (arc < 0)
                return false;
            if (pending_.type == FrameType::Result)
                ++stats_.results;
            else
                ++stats_.pointErrors;
            pending_ = PendingReport{};
            if (ack.type == FrameType::Done) {
                sendLocked(FrameType::Goodbye, "");
                return true;
            }
            if (ack.type == FrameType::Reject) {
                PayloadReader r(ack.payload);
                *err = "rejected by daemon: " + r.str();
                return false;
            }
            if (ack.type != FrameType::ResultAck) {
                *err = std::string(
                           "expected result-ack, got ") +
                       frameTypeName(ack.type);
                return false;
            }
            continue;
        }

        if (!sendLocked(FrameType::LeaseRequest, "")) {
            if (peerGone(errno)) {
                dropConnection();
                continue;
            }
            *err = "lease request: " + errnoMessage(errno);
            return false;
        }
        Frame f;
        const int rc = transport_.recvFrame(fd_, &f, err);
        if (lostFrame(rc)) {
            dropConnection();
            continue;
        }
        if (rc < 0)
            return false;
        switch (f.type) {
          case FrameType::LeaseGrant: {
            PayloadReader r(f.payload);
            const std::size_t point =
                static_cast<std::size_t>(r.u64());
            ++stats_.leases;
            executePoint(point, fn);
            break; // the pending branch submits + awaits the ack
          }
          case FrameType::NoWork: {
            PayloadReader r(f.payload);
            const std::uint64_t hint = r.u64();
            ++stats_.noWorkWaits;
            // Wait as hinted, but wake early if the daemon speaks
            // (usually the final Done broadcast).
            harness::pollOne(
                fd_, POLLIN,
                static_cast<int>(
                    std::min<std::uint64_t>(hint ? hint : 100, 1000)));
            break;
          }
          case FrameType::Done:
            sendLocked(FrameType::Goodbye, "");
            return true;
          case FrameType::Reject: {
            PayloadReader r(f.payload);
            *err = "rejected by daemon: " + r.str();
            return false;
          }
          default:
            *err = std::string("unexpected frame from daemon: ") +
                   frameTypeName(f.type);
            return false;
        }
    }
}

} // namespace svc
} // namespace tb
