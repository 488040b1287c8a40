#include "harness/campaign_journal.hh"

#include <cerrno>
#include <cstdio>

#include "sim/logging.hh"

namespace tb {
namespace harness {

std::uint64_t
fnv1a64(const std::string& data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
writeFileAtomic(const std::string& path, const std::string& content)
{
    const std::string tmp = path + ".tmp";
    {
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        if (!f)
            fatal("cannot write ", tmp, ": ", errnoMessage(errno));
        const bool ok =
            std::fwrite(content.data(), 1, content.size(), f) ==
                content.size() &&
            std::fflush(f) == 0;
        std::fclose(f);
        if (!ok)
            fatal("short write to ", tmp, ": ", errnoMessage(errno));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename ", tmp, " -> ", path, ": ",
              errnoMessage(errno));
}

} // namespace harness
} // namespace tb
