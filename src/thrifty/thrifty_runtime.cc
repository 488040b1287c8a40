#include "thrifty/thrifty_runtime.hh"

#include "sim/logging.hh"

namespace tb {
namespace thrifty {

ThriftyRuntime::ThriftyRuntime(unsigned num_threads,
                               const ThriftyConfig& config,
                               SyncStats& stats)
    : threads(num_threads),
      cfg(config),
      pred(makePredictor(config.predictorKind)),
      syncStats(stats),
      brts_(num_threads, 0)
{
    if (num_threads == 0)
        fatal("thrifty runtime needs at least one thread");
    if (cfg.ideal && !cfg.oracle)
        fatal("ideal mode implies oracle mode");
}

} // namespace thrifty
} // namespace tb
