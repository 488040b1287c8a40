/**
 * @file
 * One-line digest of an ExperimentResult.
 *
 * `paper_campaign --only-point` prints the line and the benchmark
 * harness checksums it. It carries every field the report renderers
 * consume — doubles in shortest round-trip form, ticks verbatim — so
 * two results with equal lines render identical reports.
 *
 * The format is a single `TBRESULT1 key=value ...` line with quoted,
 * JSON-escaped strings. The per-departure trace and the episode
 * ledger are not carried.
 */

#ifndef TB_HARNESS_RESULT_SERDE_HH_
#define TB_HARNESS_RESULT_SERDE_HH_

#include <string>

#include "harness/experiment.hh"

namespace tb {
namespace harness {

/** Serialize @p r to one self-contained line (no trailing newline). */
std::string serializeResult(const ExperimentResult& r);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_RESULT_SERDE_HH_
