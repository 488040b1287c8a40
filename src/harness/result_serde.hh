/**
 * @file
 * Lossless one-line serialization of ExperimentResult.
 *
 * The line is a point's digest: the figure campaigns' `--only-point`
 * prints it, and the benchmark harness checksums it. It carries the
 * full result — every field the report renderers consume — so doubles
 * are emitted with max_digits10 precision and ticks verbatim:
 * deserialize(serialize(r)) reproduces bit-identical report output,
 * which the round-trip tests check.
 *
 * The format is a single `TBRESULT1 key=value ...` line with quoted,
 * backslash-escaped strings — cheap enough to parse without a JSON
 * library. The per-departure trace is intentionally not
 * carried: campaigns never enable it.
 */

#ifndef TB_HARNESS_RESULT_SERDE_HH_
#define TB_HARNESS_RESULT_SERDE_HH_

#include <string>

#include "harness/experiment.hh"

namespace tb {
namespace harness {

/** Serialize @p r to one self-contained line (no trailing newline). */
std::string serializeResult(const ExperimentResult& r);

/**
 * Rebuild a result from serializeResult() output. Throws FatalError
 * on malformed input (wrong magic, missing field, bad number).
 */
ExperimentResult deserializeResult(const std::string& line);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_RESULT_SERDE_HH_
