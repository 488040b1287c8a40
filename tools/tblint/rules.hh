/**
 * @file
 * tblint rule engine: simulator-specific invariants enforced at lint
 * time (docs/CHECKING.md, "Static analysis").
 *
 * The load-bearing property of this repo is that simulation artifacts
 * are byte-identical across serial runs, `--jobs N` and `--isolate`
 * campaigns. CI enforces that dynamically by diffing artifacts;
 * these rules catch the bug classes that break it *before* they run:
 *
 *   TBL000  suppression hygiene: a tblint-allow directive must name
 *           known rule IDs and carry a non-empty reason.
 *   TBL001  determinism: range-for over a std::unordered_map/set —
 *           iteration order is unspecified, so anything it feeds
 *           (stats, serde, JSON) must use sorted emission instead.
 *   TBL002  determinism: wall-clock / ambient entropy (chrono clocks,
 *           time(), rand(), std::random_device, ...) anywhere but
 *           src/sim/random.hh. True wall-clock sites (supervisor
 *           deadlines, bench timing) carry an inline allow.
 *   TBL003  determinism: pointer identity reaching output — "%p" in a
 *           format string, std::hash of a pointer type, or a
 *           pointer-to-integer reinterpret_cast.
 *   TBL010  lifetime: a class declares an EventHandle member that is
 *           never canceled anywhere in the class's files — pending
 *           events can outlive their owner (the bug class PR 2 fixed
 *           by hand).
 *   TBL011  lifetime: calling .when()/.scheduled() on a handle after
 *           .cancel() without rescheduling it — post-cancel reads are
 *           deterministic no-ops (kTickNever/false) and almost always
 *           a logic bug.
 *   TBL020  layering: src/sim must not include src/harness or src/obs
 *           headers (the kernel stays below the tooling layers).
 *   TBL021  layering: TraceSink::instant/complete calls outside
 *           src/obs must sit under a TB_TRACED(...) guard, so
 *           -DTB_TRACING=OFF compiles every seam out.
 *   TBL023  robustness: raw ::read/::write/::poll/::accept in
 *           src/ outside src/harness/posix_io.cc — I/O must use the
 *           posix_io helpers, which own the EINTR-as-retry policy.
 *   TBL024  layering: direct Network::send from src/mem or
 *           src/thrifty — protocol messages must travel mem::Fabric
 *           (or the per-hop API) so the coherence observer and byte
 *           accounting see them; the fabric's own wrappers carry
 *           inline allows.
 *
 * Findings are suppressed by an inline comment directive — the allow
 * tag with the rule ID in parentheses, then a mandatory reason — on
 * the same line or the line directly above; `tblint --list-rules`
 * prints the exact syntax. All matching is lexical (see
 * lexer.hh): cheap, dependency-free, and easy to keep true-positive;
 * genuinely ambiguous constructs are skipped rather than guessed at.
 */

#ifndef TB_TOOLS_TBLINT_RULES_HH_
#define TB_TOOLS_TBLINT_RULES_HH_

#include <string>
#include <vector>

namespace tblint {

/** One diagnostic. */
struct Finding
{
    std::string rule;    ///< stable ID, e.g. "TBL001"
    std::string path;    ///< file as given to the linter
    int line = 0;        ///< 1-based
    std::string message; ///< what is wrong, with the offending name
    std::string hint;    ///< how to fix it (printed under --fix-hints)
};

/** Catalog entry for --list-rules and the docs table. */
struct RuleInfo
{
    const char* id;
    const char* name;
    const char* summary;
};

/** Every rule, in ID order. */
const std::vector<RuleInfo>& ruleCatalog();

/**
 * Lint @p content as file @p path. @p companion is the content of the
 * same-stem header/source next to it ("" when there is none): member
 * declarations live in the .hh while the cancel/iteration code lives
 * in the .cc, so TBL001 and TBL010 look across the pair.
 * Suppressions are already applied; the returned findings are real.
 */
std::vector<Finding> lintContent(const std::string& path,
                                 const std::string& content,
                                 const std::string& companion = "");

/**
 * Lint the file at @p path, resolving the .cc/.hh companion on disk.
 * I/O errors produce a single pseudo-finding with rule "IO".
 */
std::vector<Finding> lintFile(const std::string& path);

} // namespace tblint

#endif // TB_TOOLS_TBLINT_RULES_HH_
