#include "harness/campaign_cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace tb {
namespace harness {

namespace {

[[noreturn]] void
usage(const char* prog, const char* complaint, bool allowQuick)
{
    std::fprintf(
        stderr,
        "%s: %s\n"
        "usage: %s %s[--jobs N] [--deadline-ms N] [--isolate]\n"
        "       [--out FILE] [--manifest FILE] [--only-point I]\n"
        "       [--trace FILE[:categories]] [--stats-json FILE]\n",
        prog, complaint, prog, allowQuick ? "[--quick] " : "");
    std::exit(2);
}

/**
 * Parse a non-negative integer no larger than @p max. Anything else,
 * including a value its destination type would silently wrap, is a
 * usage error.
 */
std::uint64_t
parseU64(const char* prog, const char* opt, const char* text,
         bool allowQuick,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        std::strchr(text, '-') != nullptr) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "option %s: '%s' is not a non-negative integer",
                      opt, text);
        usage(prog, buf, allowQuick);
    }
    if (v > max) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "option %s: '%s' is out of range [0, %llu]", opt,
                      text, static_cast<unsigned long long>(max));
        usage(prog, buf, allowQuick);
    }
    return v;
}

unsigned
parseUnsigned(const char* prog, const char* opt, const char* text,
              bool allowQuick)
{
    return static_cast<unsigned>(parseU64(
        prog, opt, text, allowQuick,
        std::numeric_limits<unsigned>::max()));
}

} // namespace

CampaignOptions
CampaignOptions::parse(int argc, char** argv, bool allowQuick)
{
    CampaignOptions o;
    const char* prog = argc > 0 ? argv[0] : "campaign";

    const auto operand = [&](int& i, const char* opt) -> const char* {
        if (i + 1 >= argc) {
            char buf[64];
            std::snprintf(buf, sizeof(buf),
                          "option %s needs a value", opt);
            usage(prog, buf, allowQuick);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        // Accept --opt=value by splitting in place.
        std::string opt = arg;
        const char* inline_val = nullptr;
        const std::size_t eq = opt.find('=');
        if (eq != std::string::npos && opt.compare(0, 2, "--") == 0) {
            inline_val = arg + eq + 1;
            opt.resize(eq);
        }
        const auto value = [&](int& idx) {
            return inline_val ? inline_val
                              : operand(idx, opt.c_str());
        };

        if (opt == "--jobs") {
            o.policy.jobs =
                parseUnsigned(prog, "--jobs", value(i), allowQuick);
            if (o.policy.jobs == 0)
                usage(prog, "option --jobs: must be >= 1", allowQuick);
        } else if (opt == "--deadline-ms") {
            o.policy.deadlineMs = parseU64(prog, "--deadline-ms",
                                           value(i), allowQuick,
                                           kMaxDeadlineMs);
        } else if (opt == "--isolate") {
            o.policy.isolate = true;
        } else if (opt == "--out") {
            o.outPath = value(i);
        } else if (opt == "--manifest") {
            o.manifestPath = value(i);
        } else if (opt == "--only-point") {
            o.onlyPoint = static_cast<long>(
                parseU64(prog, "--only-point", value(i), allowQuick,
                         std::numeric_limits<long>::max()));
        } else if (opt == "--trace") {
            // FILE[:categories] — the first ':' splits the two.
            const std::string spec = value(i);
            const std::size_t colon = spec.find(':');
            o.tracePath = spec.substr(0, colon);
            if (o.tracePath.empty()) {
                usage(prog, "option --trace needs a file name",
                      allowQuick);
            }
            if (colon != std::string::npos &&
                !obs::parseCategories(spec.substr(colon + 1),
                                      &o.traceMask)) {
                char buf[160];
                std::snprintf(
                    buf, sizeof(buf),
                    "option --trace: bad category list '%s' "
                    "(known: sim,mem,noc,thrifty,all)",
                    spec.substr(colon + 1).c_str());
                usage(prog, buf, allowQuick);
            }
        } else if (opt == "--stats-json") {
            o.statsJsonPath = value(i);
            if (o.statsJsonPath.empty()) {
                usage(prog, "option --stats-json needs a file name",
                      allowQuick);
            }
        } else if (opt == "--quick" && allowQuick) {
            o.quick = true;
        } else {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "unknown option '%s'",
                          arg);
            usage(prog, buf, allowQuick);
        }
    }
    return o;
}

std::string
CampaignOptions::reproFlags() const
{
    std::string flags;
    if (quick)
        flags += " --quick";
    if (policy.isolate)
        flags += " --isolate";
    return flags;
}

} // namespace harness
} // namespace tb
