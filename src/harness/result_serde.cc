#include "harness/result_serde.hh"

#include <sstream>

#include "obs/json_writer.hh"

namespace tb {
namespace harness {

namespace {

constexpr const char* kMagic = "TBRESULT1";

/** Strings use the shared JSON escape policy (obs::JsonWriter).
 *  Appended piecewise: GCC 12's -Wrestrict misfires on
 *  `"\"" + std::string + "\""` in Release builds. */
std::string
quote(const std::string& s)
{
    std::string out(1, '"');
    out += obs::JsonWriter::escape(s);
    out += '"';
    return out;
}

/** Doubles use the shared shortest-round-trip policy: the digits
 *  name the exact bits without paying 17 of them for simple values. */
std::string
num(double v)
{
    return obs::formatDouble(v);
}

} // namespace

std::string
serializeResult(const ExperimentResult& r)
{
    std::ostringstream os;
    os << kMagic << " app=" << quote(r.app)
       << " config=" << quote(r.config) << " exec=" << r.execTime
       << " threads=" << r.threads;

    os << " energy=";
    for (std::size_t b = 0; b < r.energy.size(); ++b)
        os << (b ? "," : "") << num(r.energy[b]);
    os << " time=";
    for (std::size_t b = 0; b < r.time.size(); ++b)
        os << (b ? "," : "") << r.time[b];

    const thrifty::SyncStats& s = r.sync;
    os << " stall=" << num(s.totalStallTicks)
       << " inst=" << s.instances << " arr=" << s.arrivals
       << " sleeps=" << s.sleeps << " spins=" << s.spins
       << " cutoffs=" << s.cutoffs << " filt=" << s.filteredUpdates
       << " rticks=" << num(s.residualSpinTicks)
       << " rspins=" << s.residualSpins << " wdog=" << s.watchdogFires
       << " resc=" << s.residualEscalations
       << " quar=" << s.quarantines << " fall=" << s.fallbackEpisodes;

    os << " spec=" << quote(r.faultSpec);
    std::string fc;
    for (const auto& [kind, count] : r.faultCounts) {
        if (!fc.empty())
            fc += ',';
        fc += kind + ':' + std::to_string(count);
    }
    os << " faults=" << quote(fc);
    return os.str();
}

} // namespace harness
} // namespace tb
