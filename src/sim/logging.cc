#include "sim/logging.hh"

#include <atomic>
#include <cstdint>
#include <iostream>
#include <system_error>

namespace tb {

namespace {

std::atomic<std::uint64_t> g_warn_count{0};
std::atomic<bool> g_quiet{false};

} // namespace

namespace detail {

void
emitWarn(const std::string& msg)
{
    g_warn_count.fetch_add(1, std::memory_order_relaxed);
    if (!g_quiet.load(std::memory_order_relaxed))
        std::cerr << "warn: " << msg << '\n';
}

void
emitInform(const std::string& msg)
{
    if (!g_quiet.load(std::memory_order_relaxed))
        std::cerr << "info: " << msg << '\n';
}

} // namespace detail

std::string
errnoMessage(int err)
{
    return std::generic_category().message(err) + " (errno " +
           std::to_string(err) + ")";
}

std::uint64_t
warnCount()
{
    return g_warn_count.load(std::memory_order_relaxed);
}

void
setLogQuiet(bool quiet)
{
    g_quiet.store(quiet, std::memory_order_relaxed);
}

} // namespace tb
