#include "harness/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace tb {
namespace harness {

void
ParallelCampaignRunner::run(
    std::size_t count,
    const std::function<void(std::size_t)>& point) const
{
    if (count == 0)
        return;

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, count));

    std::vector<std::exception_ptr> errors(count);

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            try {
                point(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        rethrowAggregated(errors);
        return;
    }

    // Concurrency discipline (not expressible to -Wthread-safety, see
    // sim/thread_safety.hh): there is no mutex here by design. `next`
    // is a lock-free claim counter, each claimed index is owned by
    // exactly one worker, and `errors[i]` is only ever written by the
    // worker that claimed i — writes are index-disjoint. The join
    // below is the sole synchronization edge; after it the caller
    // thread reads `errors` exclusively.
    std::atomic<std::size_t> next{0};

    const auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                point(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto& t : pool)
        t.join();

    rethrowAggregated(errors);
}

void
ParallelCampaignRunner::rethrowAggregated(
    const std::vector<std::exception_ptr>& errors)
{
    std::vector<std::size_t> failed;
    std::string first_what;
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (!errors[i])
            continue;
        if (failed.empty()) {
            try {
                std::rethrow_exception(errors[i]);
            } catch (const std::exception& e) {
                first_what = e.what();
            } catch (...) {
                first_what = "unknown exception";
            }
        }
        failed.push_back(i);
    }
    if (failed.empty())
        return;
    if (failed.size() == 1) {
        // A single failure rethrows unchanged so callers can still
        // catch the concrete type.
        std::rethrow_exception(errors[failed.front()]);
    }
    std::string msg = std::to_string(failed.size()) +
                      " campaign points failed (indices";
    for (std::size_t i : failed)
        msg += ' ' + std::to_string(i);
    msg += "); first: " + first_what;
    throw std::runtime_error(msg);
}

} // namespace harness
} // namespace tb
