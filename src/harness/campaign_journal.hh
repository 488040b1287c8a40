/**
 * @file
 * Artifact helpers shared by the campaign benches, the CLI and the
 * benchmark harness: FNV-1a checksums and atomic file writes.
 *
 * The header keeps its historical name because the benchmark harness
 * (benchmark/tb_bench.cc) includes it by that path.
 */

#ifndef TB_HARNESS_CAMPAIGN_JOURNAL_HH_
#define TB_HARNESS_CAMPAIGN_JOURNAL_HH_

#include <cstdint>
#include <string>

namespace tb {
namespace harness {

/** FNV-1a 64-bit hash of @p data (artifact and result checksums). */
std::uint64_t fnv1a64(const std::string& data);

/**
 * Write @p content to @p path atomically: write to `path.tmp`, flush,
 * then rename over the destination. Readers never observe a partial
 * artifact. Throws FatalError on I/O failure.
 */
void writeFileAtomic(const std::string& path, const std::string& content);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_CAMPAIGN_JOURNAL_HH_
