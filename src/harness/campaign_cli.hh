/**
 * @file
 * Shared command line of the supervised campaign benches.
 *
 * Every campaign binary (figure5_energy, figure6_time,
 * robustness_faults, robustness_seeds) accepts the same supervisor
 * surface, parsed strictly — a malformed or out-of-range value and
 * an unknown option print a usage error and exit 2, never a silent
 * fallback:
 *
 *   --jobs N          shard points over N worker threads
 *   --deadline-ms N   per-point wall-clock deadline (0 = none,
 *                     at most 2^31 - 1)
 *   --isolate         fork each point (crash containment)
 *   --out FILE        atomically write the final artifact to FILE
 *   --manifest FILE   atomically write the failure manifest to FILE
 *   --only-point I    run just point I inline (repro mode)
 *   --quick           CI-sized subset (benches that support it)
 *
 * plus the observability surface (docs/OBSERVABILITY.md):
 *
 *   --trace FILE[:categories]   write a Chrome trace_event JSON file
 *                               (categories: sim,mem,noc,thrifty; all
 *                               by default)
 *   --stats-json FILE           write per-point machine stats and the
 *                               barrier-episode ledger as JSONL
 */

#ifndef TB_HARNESS_CAMPAIGN_CLI_HH_
#define TB_HARNESS_CAMPAIGN_CLI_HH_

#include <string>

#include "harness/campaign_supervisor.hh"
#include "obs/trace.hh"

namespace tb {
namespace harness {

/** Parsed campaign command line. */
struct CampaignOptions
{
    SupervisorPolicy policy;
    std::string outPath;      ///< "" = stdout only
    std::string manifestPath; ///< "" = stderr only
    long onlyPoint = -1;      ///< >= 0: run one point and exit
    bool quick = false;
    std::string tracePath;    ///< "" = no trace capture
    /** Category mask for --trace (defaults to every category). */
    unsigned traceMask = obs::kAllTraceCategories;
    std::string statsJsonPath; ///< "" = no stats JSONL

    /**
     * Parse @p argv strictly. Unknown options, malformed numbers,
     * numbers too large for their field and `--quick` when
     * @p allowQuick is false all print a usage error and exit 2.
     */
    static CampaignOptions parse(int argc, char** argv,
                                 bool allowQuick);

    /**
     * The flags a repro command needs to rerun one of this
     * invocation's points as it ran: `--quick` (point space) and
     * `--isolate` (crash containment), each only when set, with a
     * leading space when non-empty.
     */
    std::string reproFlags() const;
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_CAMPAIGN_CLI_HH_
