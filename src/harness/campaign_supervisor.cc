#include "harness/campaign_supervisor.hh"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>

#include "harness/parallel_runner.hh"
#include "obs/json_writer.hh"
#include "sim/logging.hh"

namespace tb {
namespace harness {

const char*
outcomeName(PointOutcome o)
{
    switch (o) {
      case PointOutcome::Ok:               return "ok";
      case PointOutcome::Exception:        return "exception";
      case PointOutcome::CheckerViolation: return "checker-violation";
      case PointOutcome::Timeout:          return "timeout";
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
           count(PointOutcome::Timeout);
}

void
SupervisorReport::writeManifest(std::ostream& os,
                                const std::string& campaign) const
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointRecord& r = points[i];
        if (r.outcome == PointOutcome::Ok)
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
        .field("timeouts", count(PointOutcome::Timeout))
        .field("exceptions", count(PointOutcome::Exception))
        .field("checker_violations",
               count(PointOutcome::CheckerViolation));
    w.endObject();
    os << '\n';
    return os.str();
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
CampaignSupervisor::runAttempt(const PointTask& task, std::size_t i)
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
                " ms exceeded (attempt thread abandoned)";
    return a;
}

void
CampaignSupervisor::supervisePoint(const PointTask& task,
                                   std::size_t i,
                                   SupervisorReport* report)
{
    PointRecord& rec = report->points[i];
    Attempt a = runAttempt(task, i);
    rec.outcome = a.outcome;
    if (a.outcome != PointOutcome::Ok) {
        rec.message = std::move(a.payload);
        rec.repro = task.repro ? task.repro(i) : "";
        return;
    }
    results_[i] = std::move(a.payload);
}

SupervisorReport
CampaignSupervisor::run(std::size_t count, const PointTask& task)
{
    SupervisorReport report;
    report.points.assign(count, PointRecord{});
    results_.assign(count, std::string());
    // supervisePoint classifies every outcome itself and writes only
    // slot i of the report and of results_, so the runner's
    // claim-from-a-counter pool needs no further synchronization.
    ParallelCampaignRunner(policy_.jobs)
        .run(count, [&](std::size_t i) {
            supervisePoint(task, i, &report);
        });
    return report;
}

} // namespace harness
} // namespace tb
