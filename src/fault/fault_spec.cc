#include "fault/fault_spec.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace tb::fault {

namespace {

/**
 * Primitives of the `key=value[:arg]` spec grammar. Every function
 * calls fatal() on malformed input; @p what names the grammar in
 * diagnostics.
 */
namespace spec {

/** One `key=value[:arg]` entry of a comma-separated spec string. */
struct Pair
{
    std::string key;   ///< text before '='
    std::string value; ///< text between '=' and the optional ':'
    std::string arg;   ///< text after ':'; empty when absent
};

/** Parse a rate in [0, 1]; fatal() on junk or out-of-range values. */
double
parseRate(const std::string& what, const std::string& key,
          const std::string& text)
{
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        fatal(what, ": bad value '", text, "' for ", key,
              " (expected a number)");
    if (v < 0.0 || v > 1.0)
        fatal(what, ": ", key, "=", text,
              " out of range (rates are probabilities in [0, 1])");
    return v;
}

/** Parse a non-negative decimal integer; fatal() on junk. */
std::uint64_t
parseCount(const std::string& what, const std::string& key,
           const std::string& text)
{
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        text.find('-') != std::string::npos)
        fatal(what, ": bad value '", text, "' for ", key,
              " (expected a non-negative integer)");
    return v;
}

/** Render a rate the way summary() strings do (shortest %g form). */
std::string
renderRate(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Split a spec string into pairs; fatal() on malformed entries. */
std::vector<Pair>
splitPairs(const std::string& what, const std::string& text)
{
    if (text.empty())
        fatal(what, ": empty spec (expected key=value[,key=value...])");

    std::vector<Pair> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string pair = text.substr(start, comma - start);
        start = comma + 1;

        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size())
            fatal(what, ": malformed entry '", pair,
                  "' (expected key=value)");
        Pair p;
        p.key = pair.substr(0, eq);
        p.value = pair.substr(eq + 1);
        const std::size_t colon = p.value.find(':');
        if (colon != std::string::npos) {
            p.arg = p.value.substr(colon + 1);
            p.value = p.value.substr(0, colon);
            if (p.value.empty() || p.arg.empty())
                fatal(what, ": malformed entry '", pair,
                      "' (expected key=value:arg)");
        }
        out.push_back(std::move(p));
    }
    return out;
}

} // namespace spec

constexpr const char* kWhat = "fault spec";

/** Parse a non-negative number with optional ns/us/ms suffix. */
Tick
parseDuration(const std::string& key, const std::string& text)
{
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || errno == ERANGE || v < 0.0)
        fatal("fault spec: bad duration '", text, "' for ", key);
    double unit = 1.0; // raw ticks
    if (std::strcmp(end, "ns") == 0)
        unit = static_cast<double>(kNanosecond);
    else if (std::strcmp(end, "us") == 0)
        unit = static_cast<double>(kMicrosecond);
    else if (std::strcmp(end, "ms") == 0)
        unit = static_cast<double>(kMillisecond);
    else if (*end != '\0')
        fatal("fault spec: bad duration suffix '", end, "' for ", key,
              " (use ns, us, ms, or raw ticks)");
    return static_cast<Tick>(v * unit + 0.5);
}

/** Render a tick count with the largest exact unit suffix. */
std::string
renderDuration(Tick t)
{
    char buf[32];
    if (t != 0 && t % kMillisecond == 0)
        std::snprintf(buf, sizeof(buf), "%llums",
                      static_cast<unsigned long long>(t / kMillisecond));
    else if (t != 0 && t % kMicrosecond == 0)
        std::snprintf(buf, sizeof(buf), "%lluus",
                      static_cast<unsigned long long>(t / kMicrosecond));
    else if (t != 0 && t % kNanosecond == 0)
        std::snprintf(buf, sizeof(buf), "%lluns",
                      static_cast<unsigned long long>(t / kNanosecond));
    else
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(t));
    return buf;
}

} // namespace

bool
FaultSpec::enabled() const
{
    return dropWake > 0.0 || dupWake > 0.0 || delayWake > 0.0 ||
           timerDrift > 0.0 || timerFail > 0.0 || linkStall > 0.0 ||
           msgDelay > 0.0 || flushDelay > 0.0 || preempt > 0.0;
}

std::string
FaultSpec::summary() const
{
    std::string out = "seed=" + std::to_string(seed);
    auto rate = [&](const char* key, double v) {
        if (v > 0.0)
            out += std::string(",") + key + "=" + spec::renderRate(v);
    };
    auto rateDur = [&](const char* key, double v, Tick d) {
        if (v > 0.0)
            out += std::string(",") + key + "=" + spec::renderRate(v) +
                   ":" + renderDuration(d);
    };
    rate("drop-wake", dropWake);
    rateDur("dup-wake", dupWake, dupWakeDelay);
    rateDur("delay-wake", delayWake, delayWakeDelay);
    rate("timer-drift", timerDrift);
    rate("timer-fail", timerFail);
    rateDur("link-stall", linkStall, linkStallTicks);
    rateDur("msg-delay", msgDelay, msgDelayTicks);
    rateDur("flush-delay", flushDelay, flushDelayTicks);
    rateDur("preempt", preempt, preemptBurst);
    return out;
}

FaultSpec
FaultSpec::parse(const std::string& text)
{
    FaultSpec s;
    // Split on commas, then each pair on '=' and an optional ':'
    // (shared grammar primitives in fault::spec).
    for (const spec::Pair& p : spec::splitPairs(kWhat, text)) {
        const std::string& key = p.key;
        const std::string& value = p.value;
        const std::string& dur = p.arg;
        auto parseRate = [&](const std::string& k, const std::string& v) {
            return spec::parseRate(kWhat, k, v);
        };

        auto noDuration = [&]() {
            if (!dur.empty())
                fatal("fault spec: ", key,
                      " does not take a :duration suffix");
        };

        if (key == "seed") {
            noDuration();
            s.seed = spec::parseCount(kWhat, key, value);
        } else if (key == "all") {
            noDuration();
            double v = parseRate(key, value);
            s.dropWake = s.dupWake = s.delayWake = v;
            s.timerDrift = s.timerFail = v;
            s.linkStall = s.msgDelay = v;
            s.flushDelay = s.preempt = v;
        } else if (key == "drop-wake") {
            noDuration();
            s.dropWake = parseRate(key, value);
        } else if (key == "dup-wake") {
            s.dupWake = parseRate(key, value);
            if (!dur.empty())
                s.dupWakeDelay = parseDuration(key, dur);
        } else if (key == "delay-wake") {
            s.delayWake = parseRate(key, value);
            if (!dur.empty())
                s.delayWakeDelay = parseDuration(key, dur);
        } else if (key == "timer-drift") {
            noDuration();
            // Drift is a CV, not a probability, but values above 1
            // model a hopeless timer and stay meaningful; allow any
            // non-negative finite number.
            errno = 0;
            char* end = nullptr;
            double v = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
                v < 0.0)
                fatal("fault spec: bad value '", value,
                      "' for timer-drift");
            s.timerDrift = v;
        } else if (key == "timer-fail") {
            noDuration();
            s.timerFail = parseRate(key, value);
        } else if (key == "link-stall") {
            s.linkStall = parseRate(key, value);
            if (!dur.empty())
                s.linkStallTicks = parseDuration(key, dur);
        } else if (key == "msg-delay") {
            s.msgDelay = parseRate(key, value);
            if (!dur.empty())
                s.msgDelayTicks = parseDuration(key, dur);
        } else if (key == "flush-delay") {
            s.flushDelay = parseRate(key, value);
            if (!dur.empty())
                s.flushDelayTicks = parseDuration(key, dur);
        } else if (key == "preempt") {
            s.preempt = parseRate(key, value);
            if (!dur.empty())
                s.preemptBurst = parseDuration(key, dur);
        } else {
            fatal("fault spec: unknown key '", key,
                  "' (see docs/ROBUSTNESS.md for the spec grammar)");
        }
    }
    return s;
}

} // namespace tb::fault
