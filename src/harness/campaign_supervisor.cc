#include "harness/campaign_supervisor.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/posix_io.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"

namespace tb {
namespace harness {

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void
sigintHandler(int)
{
    // Second ^C: the user really means it — restore default handling
    // and die on the spot (the journal is flushed per record anyway).
    if (g_stop_requested) {
        std::signal(SIGINT, SIG_DFL);
        std::raise(SIGINT);
        return;
    }
    g_stop_requested = 1;
}

} // namespace

const char*
outcomeName(PointOutcome o)
{
    switch (o) {
      case PointOutcome::Ok:               return "ok";
      case PointOutcome::Journaled:        return "journaled";
      case PointOutcome::Exception:        return "exception";
      case PointOutcome::CheckerViolation: return "checker-violation";
      case PointOutcome::Timeout:          return "timeout";
      case PointOutcome::Crash:            return "crash";
      case PointOutcome::NotRun:           return "not-run";
    }
    return "?";
}

std::size_t
SupervisorReport::count(PointOutcome o) const
{
    std::size_t n = 0;
    for (const PointRecord& r : points)
        n += r.outcome == o;
    return n;
}

std::size_t
SupervisorReport::failures() const
{
    return count(PointOutcome::Exception) +
           count(PointOutcome::CheckerViolation) +
           count(PointOutcome::Timeout) + count(PointOutcome::Crash);
}

void
SupervisorReport::writeManifest(std::ostream& os,
                                const std::string& campaign) const
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointRecord& r = points[i];
        if (r.outcome == PointOutcome::Ok ||
            r.outcome == PointOutcome::Journaled)
            continue;
        if (r.outcome == PointOutcome::NotRun && !interrupted)
            continue;
        obs::JsonWriter w(os);
        w.beginObject();
        w.field("campaign", campaign)
            .field("kind", "manifest")
            .field("point", i)
            .field("outcome", outcomeName(r.outcome))
            .field("error", r.message)
            .field("repro", r.repro);
        w.endObject();
        os << '\n';
    }
    if (interrupted) {
        obs::JsonWriter w(os);
        w.beginObject();
        w.field("campaign", campaign)
            .field("kind", "manifest")
            .field("outcome", "interrupted");
        w.endObject();
        os << '\n';
    }
}

std::string
SupervisorReport::summaryJson(const std::string& campaign) const
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("campaign", campaign)
        .field("kind", "supervisor")
        .field("points", points.size())
        .field("ok", count(PointOutcome::Ok))
        .field("journaled", count(PointOutcome::Journaled))
        .field("timeouts", count(PointOutcome::Timeout))
        .field("crashes", count(PointOutcome::Crash))
        .field("exceptions", count(PointOutcome::Exception))
        .field("checker_violations",
               count(PointOutcome::CheckerViolation))
        .field("not_run", count(PointOutcome::NotRun))
        .field("interrupted", interrupted);
    w.endObject();
    os << '\n';
    return os.str();
}

void
CampaignSupervisor::installSigintHandler()
{
    std::signal(SIGINT, sigintHandler);
}

bool
CampaignSupervisor::interruptRequested()
{
    return g_stop_requested != 0;
}

void
CampaignSupervisor::clearInterruptForTest()
{
    g_stop_requested = 0;
}

CampaignSupervisor::~CampaignSupervisor()
{
    LockGuard lock(mu_);
    for (std::thread& t : abandoned_) {
        if (t.joinable())
            t.detach();
    }
}

void
CampaignSupervisor::joinAbandonedForTest()
{
    LockGuard lock(mu_);
    for (std::thread& t : abandoned_) {
        if (t.joinable())
            t.join();
    }
    abandoned_.clear();
}

namespace {

/** Run one attempt on the calling thread and classify the outcome. */
CampaignSupervisor::Attempt
classifyRun(const std::function<std::string(std::size_t)>& fn,
            std::size_t i)
{
    CampaignSupervisor::Attempt a;
    try {
        a.payload = fn(i);
        a.outcome = PointOutcome::Ok;
    } catch (const PanicError& e) {
        a.outcome = PointOutcome::CheckerViolation;
        a.payload = e.what();
    } catch (const std::exception& e) {
        a.outcome = PointOutcome::Exception;
        a.payload = e.what();
    } catch (...) {
        a.outcome = PointOutcome::Exception;
        a.payload = "unknown exception";
    }
    return a;
}

} // namespace

CampaignSupervisor::Attempt
CampaignSupervisor::runAttemptInProcess(const PointTask& task,
                                        std::size_t i)
{
    if (policy_.deadlineMs == 0)
        return classifyRun(task.run, i);

    // Deadline mode: run the attempt on its own thread and wait with
    // a timeout. A timed-out thread cannot be killed — it is moved to
    // abandoned_ (kept alive until process exit) and the point is
    // classified Timeout. The control block is shared so the
    // abandoned attempt never touches freed supervisor state.
    struct Box
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        Attempt a;
    };
    auto box = std::make_shared<Box>();
    const std::function<std::string(std::size_t)> fn = task.run;
    std::thread th([box, fn, i]() {
        Attempt a = classifyRun(fn, i);
        {
            std::lock_guard<std::mutex> lock(box->mu);
            box->a = std::move(a);
            box->done = true;
        }
        box->cv.notify_all();
    });

    std::unique_lock<std::mutex> lock(box->mu);
    const bool done = box->cv.wait_for(
        lock, std::chrono::milliseconds(policy_.deadlineMs),
        [&]() { return box->done; });
    lock.unlock();
    if (done) {
        th.join();
        return box->a;
    }
    {
        LockGuard g(mu_);
        abandoned_.push_back(std::move(th));
    }
    Attempt a;
    a.outcome = PointOutcome::Timeout;
    a.payload = "deadline of " + std::to_string(policy_.deadlineMs) +
                " ms exceeded (attempt thread abandoned; use "
                "--isolate to kill hung points)";
    return a;
}

CampaignSupervisor::Attempt
CampaignSupervisor::runAttemptForked(const PointTask& task,
                                     std::size_t i)
{
    using namespace std::chrono;
    Attempt a;

    int fds[2];
    if (::pipe(fds) != 0) {
        a.payload = std::string("pipe: ") + errnoMessage(errno);
        return a;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        a.payload = std::string("fork: ") + errnoMessage(errno);
        return a;
    }
    if (pid == 0) {
        // Child: run the point, stream the artifact (or diagnostic)
        // back, and _exit with a classification code — no atexit, no
        // stdio flush (inherited buffers would duplicate output).
        // writeFull retries EINTR; with SIGPIPE ignored, a parent that
        // died mid-transfer surfaces as EPIPE and the child just
        // exits — either way the parent side classifies the point.
        ::close(fds[0]);
        const Attempt child = classifyRun(task.run, i);
        writeFull(fds[1], child.payload.data(), child.payload.size());
        ::close(fds[1]);
        int code = 3;
        if (child.outcome == PointOutcome::Ok)
            code = 0;
        else if (child.outcome == PointOutcome::CheckerViolation)
            code = 4;
        ::_exit(code);
    }

    // Parent: drain the pipe while waiting (a large artifact must not
    // deadlock against a full pipe buffer), enforce the deadline with
    // SIGKILL, then classify by exit status.
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    std::string payload;
    char buf[4096];
    // tblint-allow(TBL002): genuine wall-clock — attempt deadline
    const auto start = steady_clock::now();
    int status = 0;
    bool timed_out = false;
    for (;;) {
        // readSome retries EINTR (SIGINT/SIGCHLD must not abort the
        // drain) but passes EAGAIN through — the pipe is non-blocking.
        for (;;) {
            const ssize_t r = readSome(fds[0], buf, sizeof(buf));
            if (r > 0)
                payload.append(buf, static_cast<std::size_t>(r));
            else
                break;
        }
        pid_t w;
        do {
            w = ::waitpid(pid, &status, WNOHANG);
        } while (w < 0 && errno == EINTR);
        if (w == pid)
            break;
        if (policy_.deadlineMs != 0 &&
            // tblint-allow(TBL002): genuine wall-clock — deadline
            duration_cast<milliseconds>(steady_clock::now() - start)
                    .count() >=
                static_cast<long long>(policy_.deadlineMs)) {
            ::kill(pid, SIGKILL);
            pid_t rw;
            do {
                rw = ::waitpid(pid, &status, 0);
            } while (rw < 0 && errno == EINTR);
            timed_out = true;
            break;
        }
        // tblint-allow(TBL002): deadline watch on the forked child
        std::this_thread::sleep_for(milliseconds(1));
    }
    for (;;) {
        const ssize_t r = readSome(fds[0], buf, sizeof(buf));
        if (r > 0)
            payload.append(buf, static_cast<std::size_t>(r));
        else
            break;
    }
    ::close(fds[0]);

    if (timed_out) {
        a.outcome = PointOutcome::Timeout;
        a.payload = "deadline of " +
                    std::to_string(policy_.deadlineMs) +
                    " ms exceeded (child killed)";
        return a;
    }
    if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        if (code == 0) {
            a.outcome = PointOutcome::Ok;
            a.payload = std::move(payload);
        } else if (code == 3) {
            a.outcome = PointOutcome::Exception;
            a.payload = payload.empty() ? "(no diagnostic)" : payload;
        } else if (code == 4) {
            a.outcome = PointOutcome::CheckerViolation;
            a.payload = payload.empty() ? "(no diagnostic)" : payload;
        } else {
            // Not one of ours: the child died some other way (e.g. a
            // sanitizer abort) — contained, but still a crash.
            a.outcome = PointOutcome::Crash;
            a.payload =
                "child exited with status " + std::to_string(code);
            if (!payload.empty())
                a.payload += ": " + payload;
        }
        return a;
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        a.outcome = PointOutcome::Crash;
        a.payload = "child killed by signal " + std::to_string(sig) +
                    " (" + signalName(sig) + ")";
        return a;
    }
    a.outcome = PointOutcome::Crash;
    a.payload = "child vanished (unparseable wait status)";
    return a;
}

void
CampaignSupervisor::supervisePoint(const PointTask& task,
                                   std::size_t i,
                                   SupervisorReport* report)
{
    PointRecord& rec = report->points[i];
    const std::uint64_t key =
        task.key ? task.key(i)
                 : fnv1a64("point:" + std::to_string(i));

    if (journal_ && journal_->active()) {
        std::string stored;
        if (journal_->lookup(i, key, &stored)) {
            results_[i] = std::move(stored);
            rec.outcome = PointOutcome::Journaled;
            return;
        }
    }
    Attempt a = policy_.isolate ? runAttemptForked(task, i)
                                : runAttemptInProcess(task, i);
    rec.outcome = a.outcome;
    if (a.outcome != PointOutcome::Ok) {
        rec.message = std::move(a.payload);
        rec.repro = task.repro ? task.repro(i) : "";
        return;
    }
    results_[i] = std::move(a.payload);
    if (journal_ && journal_->active()) {
        journal_->record(i, key, task.seed ? task.seed(i) : 0,
                         results_[i]);
    }
}

SupervisorReport
CampaignSupervisor::run(std::size_t count, const PointTask& task)
{
    // A child of --isolate may write its artifact into a pipe whose
    // parent-side reader is gone (campaign interrupted): EPIPE, not
    // process death.
    ignoreSigpipe();

    SupervisorReport report;
    report.points.assign(count, PointRecord{});
    results_.assign(count, std::string());
    if (count == 0) {
        report.interrupted = interruptRequested();
        return report;
    }

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(policy_.jobs == 0 ? 1 : policy_.jobs,
                              count));
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        for (;;) {
            if (interruptRequested())
                return;
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            supervisePoint(task, i, &report);
        }
    };

    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto& t : pool)
            t.join();
    }

    report.interrupted = interruptRequested();
    if (report.interrupted && task.repro) {
        for (std::size_t i = 0; i < count; ++i) {
            if (report.points[i].outcome == PointOutcome::NotRun)
                report.points[i].repro = task.repro(i);
        }
    }
    return report;
}

} // namespace harness
} // namespace tb
