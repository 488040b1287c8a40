#include "thrifty/tree_barrier.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "thrifty/spin_wait.hh"

namespace tb {
namespace thrifty {

TreeBarrier::TreeBarrier(EventQueue& queue, BarrierPc pc,
                         ThriftyRuntime& rt, mem::MemorySystem& memory,
                         unsigned radix_, std::string name)
    : SimObject(queue, std::move(name)),
      barrierPc(pc),
      runtime(rt),
      backend(memory.backend()),
      radix(radix_),
      total(rt.numThreads()),
      arrivalTick(total, 0),
      computeTime(total, 0),
      wakeTick(total, kTickNever),
      arrivalInstance(total, 0)
{
    if (radix < 2)
        fatal(this->name(), ": tree radix must be >= 2");
    if (runtime.config().oracle)
        fatal(this->name(), ": oracle mode unsupported for the tree");

    // Build levels bottom-up until a single group remains.
    unsigned members = total;
    for (;;) {
        const unsigned n_groups = (members + radix - 1) / radix;
        std::vector<Group> level(n_groups);
        for (unsigned g = 0; g < n_groups; ++g) {
            Group& grp = level[g];
            grp.size = std::min(radix, members - g * radix);
            grp.sense.assign(grp.size, 0);
            const Addr base =
                memory.addressMap().allocShared(mem::kPageBytes);
            grp.count = base;
            grp.flag = base + mem::kLineBytes;
            grp.bit = base + 2 * mem::kLineBytes;
        }
        groups.push_back(std::move(level));
        if (n_groups == 1)
            break;
        members = n_groups;
    }
}

TreeBarrier::Group&
TreeBarrier::groupAt(unsigned level, unsigned index)
{
    return groups.at(level).at(index);
}

void
TreeBarrier::arrive(cpu::ThreadContext& tc, std::function<void()> cont)
{
    const ThreadId tid = tc.tid();
    if (tid >= total)
        panic(name(), ": thread ", tid, " outside barrier population");
    SyncStats& st = runtime.stats();
    ++st.arrivals;
    arrivalTick[tid] = curTick();
    computeTime[tid] = curTick() - runtime.brts(tid);
    wakeTick[tid] = kTickNever;
    arrivalInstance[tid] = instanceIdx;

    ascend(tc, tid, 0, tid / radix, tid % radix,
           [this, tid, cont = std::move(cont)](Tick bit) mutable {
               finishThread(tid, bit, std::move(cont));
           });
}

void
TreeBarrier::ascend(cpu::ThreadContext& tc, ThreadId tid,
                    unsigned level, unsigned index, unsigned slot,
                    std::function<void(Tick)> released)
{
    Group& g = groupAt(level, index);
    const std::uint64_t want = g.sense.at(slot) ^ 1u;
    g.sense[slot] = static_cast<std::uint8_t>(want);

    tc.atomic(
        g.count,
        [this, &g](Tick) {
            const std::uint64_t old = backend.read(g.count);
            backend.write(g.count, old + 1 == g.size ? 0 : old + 1);
            return old;
        },
        [this, &tc, tid, level, index, want, &g,
         released = std::move(released)](std::uint64_t old) mutable {
            if (old + 1 < g.size) {
                // Early in this group: thrifty-wait on the group
                // flag, then pick up the propagated BIT.
                thriftyWait(
                    tc, tid, g, want,
                    [this, &tc, &g,
                     released = std::move(released)]() mutable {
                        tc.load(g.bit,
                                [released = std::move(released)](
                                    std::uint64_t bit) mutable {
                                    released(static_cast<Tick>(bit));
                                });
                    });
                return;
            }

            // Last in this group: carry the check-in upward; when the
            // release wave reaches us, flip this group's flag (after
            // publishing the BIT) before continuing down.
            auto release_down = [this, &tc, &g, want,
                                 released = std::move(released)](
                                    Tick bit) mutable {
                releaseGroup(tc, g, want, bit,
                             [released = std::move(released),
                              bit]() mutable { released(bit); });
            };

            if (level + 1 < groups.size()) {
                ascend(tc, tid, level + 1, index / radix,
                       index % radix, std::move(release_down));
                return;
            }

            // This group IS the root: its last arriver is the
            // paper's "last thread".
            const Tick actual_bit = curTick() - runtime.brts(tid);
            runtime.recordInterval(barrierPc, actual_bit);
            ++instanceIdx;
            release_down(actual_bit);
        });
}

void
TreeBarrier::thriftyWait(cpu::ThreadContext& tc, ThreadId tid,
                         Group& group, std::uint64_t want,
                         std::function<void()> cont)
{
    const SleepChoice choice = runtime.chooseSleep(
        runtime.predictor().predict(barrierPc, tid), tid, curTick());
    if (!choice.state) {
        ++runtime.stats().spins;
        spinOnFlag(tc, group.flag, want, std::move(cont));
        return;
    }

    tc.controller().armFlagMonitor(
        group.flag, want,
        [this, &tc, tid, &group, want, choice,
         cont = std::move(cont)](bool already_flipped) mutable {
            if (already_flipped) {
                cont();
                return;
            }
            runtime.armWakeup(tc, choice);
            ++runtime.stats().sleeps;
            tc.cpu().enterSleep(
                *choice.state,
                [this, &tc, tid, &group, want,
                 cont = std::move(cont)](mem::WakeReason) mutable {
                    wakeTick[tid] = curTick();
                    // Residual spin: verify the group flag flipped.
                    spinOnFlag(tc, group.flag, want,
                               [this, tid, cont = std::move(cont)]() {
                                   SyncStats& st = runtime.stats();
                                   st.residualSpinTicks +=
                                       static_cast<double>(
                                           curTick() - wakeTick[tid]);
                                   ++st.residualSpins;
                                   cont();
                               });
                });
        });
}

void
TreeBarrier::releaseGroup(cpu::ThreadContext& tc, Group& group,
                          std::uint64_t want, Tick bit,
                          std::function<void()> cont)
{
    tc.store(group.bit, bit,
             [this, &tc, &group, want, cont = std::move(cont)]() mutable {
                 tc.store(group.flag, want, std::move(cont));
             });
}

void
TreeBarrier::finishThread(ThreadId tid, Tick bit,
                          std::function<void()> cont)
{
    runtime.advanceBrts(tid, bit);
    if (runtime.overpredicted(wakeTick[tid], runtime.brts(tid), bit))
        runtime.predictor().disable(barrierPc, tid);
    runtime.recordDeparture(barrierPc, arrivalInstance[tid], tid, bit,
                            computeTime[tid],
                            curTick() - arrivalTick[tid]);
    cont();
}

} // namespace thrifty
} // namespace tb
