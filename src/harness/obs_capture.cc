#include "harness/obs_capture.hh"

#include <utility>
#include <vector>

#include "harness/campaign_journal.hh"
#include "harness/report.hh"
#include "sim/types.hh"

namespace tb {
namespace harness {

ObsCapture::ObsCapture(const CampaignOptions& opts, std::string campaign,
                       std::size_t runs)
    : campaign_(std::move(campaign)), tracePath_(opts.tracePath),
      traceMask_(opts.traceMask), statsPath_(opts.statsJsonPath),
      entries_(runs)
{}

void
ObsCapture::arm(std::size_t index, RunOptions* ro, PointScope* scope)
{
    if (traceEnabled()) {
        scope->sink = std::make_unique<obs::TraceSink>(
            traceMask_, static_cast<std::uint32_t>(index));
        ro->traceSink = scope->sink.get();
    }
    if (statsEnabled()) {
        ro->episodeLedger = true;
        scope->writer =
            std::make_unique<obs::JsonWriter>(scope->machineJson);
        scope->writer->beginObject();
        scope->visitor =
            std::make_unique<obs::JsonStatWriter>(*scope->writer);
        ro->statsVisitor = scope->visitor.get();
    }
}

void
ObsCapture::deposit(std::size_t index, const ExperimentResult& r,
                    PointScope* scope, const std::string& label)
{
    if (!active())
        return;

    Entry e;
    e.label = label;
    if (scope->sink) {
        e.traceEvents = scope->sink->events();
        e.dropped = scope->sink->dropped();
    }
    if (scope->writer) {
        scope->writer->endObject();

        std::ostringstream line;
        obs::JsonWriter w(line);
        w.beginObject();
        w.field("campaign", campaign_)
            .field("kind", "stats")
            .field("point", index)
            .field("app", r.app)
            .field("config", r.config)
            .field("threads", r.threads)
            .field("exec_time_s", ticksToSeconds(r.execTime))
            .field("energy_j", r.totalEnergy());
        report::writeSyncJson(w, r.sync);
        w.key("machine").raw(scope->machineJson.str());
        w.key("episodes").beginArray();
        for (const auto& ep : r.sync.episodes) {
            report::writeEpisodeJson(w, ep);
            ++e.episodes;
            e.earlyWakes += ep.earlyWake() ? 1 : 0;
            e.lateWakes += ep.lateWake() ? 1 : 0;
            const Tick err = ep.predictedBit > ep.actualBit
                                 ? ep.predictedBit - ep.actualBit
                                 : ep.actualBit - ep.predictedBit;
            e.absErrTicks += static_cast<double>(err);
        }
        w.endArray();
        w.endObject();
        e.statsLine = line.str() + "\n";
    }

    entries_.at(index) = std::move(e);
}

std::string
ObsCapture::renderTraceFile() const
{
    if (!traceEnabled())
        return "";
    std::vector<obs::TraceChunk> chunks;
    for (std::size_t index = 0; index < entries_.size(); ++index) {
        if (!entries_[index])
            continue;
        obs::TraceChunk c;
        c.pid = static_cast<std::uint32_t>(index);
        c.label = entries_[index]->label;
        c.events = entries_[index]->traceEvents;
        c.dropped = entries_[index]->dropped;
        chunks.push_back(std::move(c));
    }
    std::ostringstream os;
    obs::writeChromeTrace(os, chunks);
    return os.str();
}

std::string
ObsCapture::renderStatsFile() const
{
    if (!statsEnabled())
        return "";
    std::string out;
    for (const auto& e : entries_) {
        if (e)
            out += e->statsLine;
    }
    return out;
}

std::string
ObsCapture::predictionSummaryJson() const
{
    if (!statsEnabled())
        return "";
    std::uint64_t episodes = 0, early = 0, late = 0;
    double abs_err = 0.0;
    for (const auto& e : entries_) {
        if (!e)
            continue;
        episodes += e->episodes;
        early += e->earlyWakes;
        late += e->lateWakes;
        abs_err += e->absErrTicks;
    }
    std::ostringstream line;
    obs::JsonWriter w(line);
    w.beginObject();
    w.field("campaign", campaign_)
        .field("kind", "prediction")
        .field("episodes", episodes)
        .field("early_wakes", early)
        .field("late_wakes", late)
        .field("mean_abs_err_ticks",
               episodes ? abs_err / static_cast<double>(episodes) : 0.0);
    w.endObject();
    return line.str() + "\n";
}

void
ObsCapture::writeFiles() const
{
    if (traceEnabled())
        writeFileAtomic(tracePath_, renderTraceFile());
    if (statsEnabled())
        writeFileAtomic(statsPath_, renderStatsFile());
}

} // namespace harness
} // namespace tb
