#include "thrifty/thrifty_lock.hh"

#include <utility>

#include "sim/logging.hh"
#include "thrifty/spin_wait.hh"
#include "thrifty/thrifty_runtime.hh"

namespace tb {
namespace thrifty {

ThriftyLock::ThriftyLock(EventQueue& queue, unsigned num_threads,
                         mem::MemorySystem& memory,
                         power::SleepStateTable sleep_states,
                         std::string name)
    : SimObject(queue, std::move(name)),
      backend(memory.backend()),
      states(std::move(sleep_states)),
      lastWait(num_threads, 0),
      waitStart(num_threads, kTickNever)
{
    if (num_threads == 0)
        fatal("thrifty lock needs at least one thread");
    lockAddr = memory.addressMap().allocShared(mem::kPageBytes);
}

bool
ThriftyLock::held() const
{
    return backend.read(lockAddr) != 0;
}

void
ThriftyLock::acquire(cpu::ThreadContext& tc, std::function<void()> cont)
{
    const ThreadId tid = tc.tid();
    if (tid >= lastWait.size())
        panic(name(), ": thread ", tid, " outside lock population");
    waitStart[tid] = kTickNever;
    tryAcquire(tc, tid, std::move(cont));
}

void
ThriftyLock::tryAcquire(cpu::ThreadContext& tc, ThreadId tid,
                        std::function<void()> cont)
{
    tc.atomic(
        lockAddr,
        [this](Tick) {
            // Test-and-set at the home memory.
            const std::uint64_t old = backend.read(lockAddr);
            if (old == 0)
                backend.write(lockAddr, 1);
            return old;
        },
        [this, &tc, tid,
         cont = std::move(cont)](std::uint64_t old) mutable {
            if (old == 0) {
                // Acquired.
                ++stats.acquisitions;
                if (waitStart[tid] == kTickNever) {
                    ++stats.immediateAcquires;
                } else {
                    const Tick wait = curTick() - waitStart[tid];
                    stats.waitTicks += static_cast<double>(wait);
                    lastWait[tid] = wait; // train the predictor
                }
                cont();
                return;
            }
            if (waitStart[tid] == kTickNever)
                waitStart[tid] = curTick();
            waitForRelease(tc, tid, std::move(cont));
        });
}

void
ThriftyLock::waitForRelease(cpu::ThreadContext& tc, ThreadId tid,
                            std::function<void()> cont)
{
    // Remaining-wait prediction: last observed wait at this lock for
    // this thread, minus what has already elapsed.
    const Tick elapsed = curTick() - waitStart[tid];
    const Tick predicted = lastWait[tid];
    const Tick remaining = predicted > elapsed ? predicted - elapsed : 0;
    const power::SleepState* state = states.select(remaining);
    bool use_timer = state != nullptr;

    if (!state) {
        // No (useful) prediction: fall back to competitive
        // spin-then-sleep — only enter a state whose round trip fits
        // in *half* the wait already endured, bounding the overhead
        // added to any single wait at 50%. Wake-up is then
        // external-only (the release's invalidation); a timer has
        // nothing to aim at.
        state = states.select(elapsed / 2);
    }

    if (!state) {
        // Spin until the lock word reads 0, then race for it.
        ++stats.spinWaits;
        spinOnFlag(tc, lockAddr, 0,
                   [this, &tc, tid, cont = std::move(cont)]() mutable {
                       tryAcquire(tc, tid, std::move(cont));
                   });
        return;
    }

    tc.controller().armFlagMonitor(
        lockAddr, 0,
        [this, &tc, tid, state, remaining, use_timer,
         cont = std::move(cont)](bool already_free) mutable {
            if (already_free) {
                tryAcquire(tc, tid, std::move(cont));
                return;
            }
            if (use_timer)
                tc.controller().armWakeTimer(wakeTimerDelay(
                    curTick() + remaining, curTick(), *state));
            ++stats.sleeps;
            tc.cpu().enterSleep(
                *state, [this, &tc, tid,
                         cont = std::move(cont)](mem::WakeReason) mutable {
                    // The retry re-decides spin-vs-sleep if it loses.
                    tryAcquire(tc, tid, std::move(cont));
                });
        });
}

void
ThriftyLock::release(cpu::ThreadContext& tc, std::function<void()> cont)
{
    if (!held())
        panic(name(), ": release of a free lock");
    tc.store(lockAddr, 0, std::move(cont));
}

} // namespace thrifty
} // namespace tb
