/**
 * @file
 * Parallel campaign runner: shards independent sweep points across
 * host threads.
 *
 * Every simulation in this codebase is single-threaded by design (one
 * EventQueue per Machine, no shared mutable state between machines —
 * see docs/PERFORMANCE.md for the audit), so a campaign of independent
 * points parallelizes trivially: each worker builds its own Machine
 * from the point's seed and runs it to completion. Determinism is
 * preserved by construction — a point's result depends only on its
 * (config, seed), never on scheduling — and output stays byte-identical
 * to a serial run because callers deposit results by point index and
 * emit them in index order after the join.
 */

#ifndef TB_HARNESS_PARALLEL_RUNNER_HH_
#define TB_HARNESS_PARALLEL_RUNNER_HH_

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

namespace tb {
namespace harness {

/** Executes a fixed-size set of independent points on worker threads. */
class ParallelCampaignRunner
{
  public:
    /** @param jobs Worker threads; 0 and 1 both mean "run inline". */
    explicit ParallelCampaignRunner(unsigned jobs = 1)
        : jobs_(jobs == 0 ? 1 : jobs)
    {}

    /** Configured worker count. */
    unsigned jobs() const { return jobs_; }

    /**
     * Run @p point(i) for every i in [0, count). Points are claimed
     * from a shared counter, so workers stay busy regardless of how
     * unevenly the points are sized. With jobs() == 1 (or count <= 1)
     * everything runs inline on the caller thread — bit-identical to
     * the parallel path as long as each point only touches its own
     * state.
     *
     * A point that throws does not stop the others, and run()
     * returns only after every point has returned. Then a single
     * failure rethrows that point's exception unchanged, while
     * multiple failures throw one std::runtime_error listing *every*
     * failed index, the first diagnostic, and one `point I: <what>`
     * line per failure — the campaign never hides how much of it
     * failed, nor why. The campaign benches print that diagnostic
     * with a rerun command and exit 1.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)>& point) const;

  private:
    static void rethrowAggregated(
        const std::vector<std::exception_ptr>& errors);

    unsigned jobs_;
};

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_PARALLEL_RUNNER_HH_
