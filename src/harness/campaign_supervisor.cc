#include "harness/campaign_supervisor.hh"

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
           count(PointOutcome::CheckerViolation);
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
        .field("exceptions", count(PointOutcome::Exception))
        .field("checker_violations",
               count(PointOutcome::CheckerViolation));
    w.endObject();
    os << '\n';
    return os.str();
}

SupervisorReport
superviseCampaign(unsigned jobs, std::size_t count,
                  const PointTask& task)
{
    SupervisorReport report;
    report.points.assign(count, PointRecord{});
    // Each point classifies its own outcome and writes only slot i of
    // the report, so the runner's claim-from-a-counter pool needs no
    // further synchronization.
    ParallelCampaignRunner(jobs).run(count, [&](std::size_t i) {
        PointRecord& rec = report.points[i];
        try {
            task.run(i);
            return;
        } catch (const PanicError& e) {
            rec.outcome = PointOutcome::CheckerViolation;
            rec.message = e.what();
        } catch (const std::exception& e) {
            rec.outcome = PointOutcome::Exception;
            rec.message = e.what();
        } catch (...) {
            rec.outcome = PointOutcome::Exception;
            rec.message = "unknown exception";
        }
        rec.repro = task.repro ? task.repro(i) : "";
    });
    return report;
}

} // namespace harness
} // namespace tb
