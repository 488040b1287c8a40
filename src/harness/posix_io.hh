/**
 * @file
 * EINTR-safe POSIX I/O helpers for the --isolate fork pipe in
 * campaign_supervisor.cc.
 *
 * Two failure modes recur around pipes:
 *
 *  - **EINTR**: any handled signal (SIGCHLD from a reaped child, a
 *    profiler's timer) can interrupt a blocking read/write mid-call.
 *    Every loop here retries transparently.
 *  - **SIGPIPE**: writing to a pipe whose reader died kills the whole
 *    process by default. A supervisor must never die because one of
 *    its children did, so setup calls ignoreSigpipe() once and write
 *    failures surface as EPIPE return values instead.
 */

#ifndef TB_HARNESS_POSIX_IO_HH_
#define TB_HARNESS_POSIX_IO_HH_

#include <cstddef>

#include <sys/types.h>

namespace tb {
namespace harness {

/**
 * Ignore SIGPIPE process-wide (idempotent). After this, a write to a
 * dead reader fails with EPIPE instead of terminating the process —
 * the only behaviour a forking supervisor can live with.
 */
void ignoreSigpipe();

/**
 * Write all @p n bytes of @p buf to @p fd, retrying on EINTR and on
 * short writes. Returns true when everything was written; false on
 * any other error (errno is preserved, EPIPE included).
 */
bool writeFull(int fd, const void* buf, std::size_t n);

/**
 * One read(2) attempt that retries EINTR only. Returns the byte
 * count, 0 on EOF, and -1 with errno EAGAIN/EWOULDBLOCK untouched so
 * non-blocking callers can distinguish "no data yet" from errors.
 */
ssize_t readSome(int fd, void* buf, std::size_t n);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_POSIX_IO_HH_
