/**
 * @file
 * Shared command line of the campaign benches.
 *
 * Both campaign binaries (paper_campaign, robustness_faults) accept
 * the same campaign surface, parsed strictly — a malformed or
 * out-of-range value and an unknown option print a usage error and
 * exit 2, never a silent fallback:
 *
 *   --jobs N          shard points over N worker threads
 *   --out FILE        atomically write the final artifact to FILE;
 *                     paper_campaign takes a directory and writes
 *                     each of its artifacts to FILE/<name>.txt
 *   --only-point I    run just point I inline (the rerun command of
 *                     a failed point; takes no --out)
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

#include "obs/trace.hh"

namespace tb {
namespace harness {

/** Parsed campaign command line. */
struct CampaignOptions
{
    /** Worker threads (at least 1). */
    unsigned jobs = 1;
    std::string outPath;      ///< "" = stdout only
    long onlyPoint = -1;      ///< >= 0: run one point and exit
    bool quick = false;
    std::string tracePath;    ///< "" = no trace capture
    /** Category mask for --trace (defaults to every category). */
    unsigned traceMask = obs::kAllTraceCategories;
    std::string statsJsonPath; ///< "" = no stats JSONL

    /**
     * Parse @p argv strictly. Unknown options, malformed numbers,
     * numbers too large for their field, `--quick=VALUE`, `--quick`
     * when @p allowQuick is false and `--only-point` together with
     * `--out` all print a usage error and exit 2.
     */
    static CampaignOptions parse(int argc, char** argv,
                                 bool allowQuick);

    /**
     * The flags a rerun command needs to rerun one of this
     * invocation's points as it ran: ` --quick` (point space) when
     * set, else "".
     */
    std::string reproFlags() const;
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_CAMPAIGN_CLI_HH_
