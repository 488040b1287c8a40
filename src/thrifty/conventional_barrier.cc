#include "thrifty/conventional_barrier.hh"

#include <utility>

#include "sim/logging.hh"
#include "thrifty/spin_wait.hh"

namespace tb {
namespace thrifty {

ConventionalBarrier::ConventionalBarrier(EventQueue& queue, BarrierPc pc,
                                         unsigned num_threads,
                                         mem::MemorySystem& memory,
                                         SyncStats& stats,
                                         std::string name)
    : SimObject(queue, std::move(name)),
      barrierPc(pc),
      total(num_threads),
      backend(memory.backend()),
      syncStats(stats),
      localSense(num_threads, 0),
      arrivalTick(num_threads, 0),
      snapInstance(num_threads, 0)
{
    if (num_threads == 0)
        fatal("barrier needs at least one thread");
    // One shared page carrying the count line and the flag line; the
    // two must not share a line lest the check-in traffic disturb the
    // spinners' flag copies.
    const Addr base = memory.addressMap().allocShared(mem::kPageBytes);
    countAddr = base;
    flagAddr = base + mem::kLineBytes;
}

void
ConventionalBarrier::arrive(cpu::ThreadContext& tc,
                            std::function<void()> cont)
{
    const ThreadId tid = tc.tid();
    if (tid >= total)
        panic(name(), ": thread ", tid, " outside barrier population");
    ++syncStats.arrivals;
    arrivalTick[tid] = tc.curTick();
    const std::uint64_t want = localSense[tid] ^ 1u;
    localSense[tid] = static_cast<std::uint8_t>(want);

    tc.atomic(
        countAddr,
        [this, &tc, tid](Tick) {
            const std::uint64_t old = backend.read(countAddr);
            backend.write(countAddr,
                          old + 1 == total ? 0 : old + 1);
            // Arm at the count's serialization point: the first
            // check-in is then strictly ordered before the release,
            // no matter how long its completion reply is in flight.
            if (old == 0) {
                if (auto* o = tc.controller().checkObserver())
                    o->onBarrierArmed(mem::lineAddr(flagAddr),
                                      instanceIdx);
            }
            // Snapshot the instance this thread checked into, and for
            // the closer advance it here — a spinner can observe the
            // flag flip before the closer's completion reply returns,
            // so the increment must happen at the serialization point,
            // not in the completion callback.
            snapInstance[tid] = instanceIdx;
            if (old + 1 == total) {
                ++instanceIdx;
                ++syncStats.instances;
            }
            return old;
        },
        [this, &tc, tid, want, cont = std::move(cont)](
            std::uint64_t old) mutable {
            if (old + 1 == total) {
                // Last thread: toggle the flag, releasing everyone.
                tc.store(flagAddr, want,
                         [this, &tc, tid, cont = std::move(cont)]() {
                             if (auto* o = tc.controller().checkObserver())
                                 o->onBarrierReleased(
                                     mem::lineAddr(flagAddr),
                                     snapInstance[tid]);
                             syncStats.totalStallTicks +=
                                 static_cast<double>(tc.curTick() -
                                                     arrivalTick[tid]);
                             cont();
                         });
                return;
            }
            ++syncStats.spins;
            spinOnFlag(tc, flagAddr, want,
                       [this, &tc, tid, cont = std::move(cont)]() {
                           syncStats.totalStallTicks +=
                               static_cast<double>(tc.curTick() -
                                                   arrivalTick[tid]);
                           cont();
                       });
        });
}

} // namespace thrifty
} // namespace tb
