#include "harness/posix_io.hh"

#include <cerrno>
#include <csignal>

#include <unistd.h>

namespace tb {
namespace harness {

void
ignoreSigpipe()
{
    // Idempotent: every supervised run calls it, all want SIG_IGN.
    std::signal(SIGPIPE, SIG_IGN);
}

bool
writeFull(int fd, const void* buf, std::size_t n)
{
    const char* p = static_cast<const char*>(buf);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

ssize_t
readSome(int fd, void* buf, std::size_t n)
{
    for (;;) {
        const ssize_t r = ::read(fd, buf, n);
        if (r < 0 && errno == EINTR)
            continue;
        return r;
    }
}

} // namespace harness
} // namespace tb
