#include "cpu/cpu.hh"

#include <utility>

#include "sim/fault_hooks.hh"
#include "sim/logging.hh"

namespace tb {
namespace cpu {

const char*
cpuStateName(CpuState s)
{
    switch (s) {
      case CpuState::Active:         return "Active";
      case CpuState::Spinning:       return "Spinning";
      case CpuState::Flushing:       return "Flushing";
      case CpuState::TransitionDown: return "TransitionDown";
      case CpuState::Sleeping:       return "Sleeping";
      case CpuState::TransitionUp:   return "TransitionUp";
    }
    return "?";
}

Cpu::Cpu(EventQueue& queue, NodeId node,
         mem::CacheController& controller,
         const power::PowerParams& power_params, std::string name)
    : SimObject(queue, std::move(name)),
      nodeId(node),
      ctrl(controller),
      params(power_params)
{
    ctrl.setWakeHandler(
        [this](mem::WakeReason r) { return wakeRequest(r); });
}

power::Bucket
Cpu::bucketOf(CpuState s)
{
    switch (s) {
      case CpuState::Active:
      case CpuState::Flushing:
        // Flush overhead lands in Compute, matching the paper's
        // observation that Thrifty's Compute segment grows under deep
        // sleep states (Section 5.2).
        return power::Bucket::Compute;
      case CpuState::Spinning:
        return power::Bucket::Spin;
      case CpuState::TransitionDown:
      case CpuState::TransitionUp:
        return power::Bucket::Transition;
      case CpuState::Sleeping:
        return power::Bucket::Sleep;
    }
    return power::Bucket::Compute;
}

double
Cpu::powerOf(CpuState s) const
{
    const double sleep_watts =
        episode ? params.sleepWatts(episode->powerFraction)
                : params.activeWatts();
    switch (s) {
      case CpuState::Active:
      case CpuState::Flushing:
        return params.activeWatts();
      case CpuState::Spinning:
        return params.spinWatts();
      case CpuState::TransitionDown:
        // Linear ramp active -> sleep accrues at the average power.
        return 0.5 * (params.activeWatts() + sleep_watts);
      case CpuState::TransitionUp:
        return 0.5 * (sleep_watts + params.activeWatts());
      case CpuState::Sleeping:
        return sleep_watts;
    }
    return params.activeWatts();
}

void
Cpu::switchTo(CpuState next)
{
    if (!accountingSuspended)
        account.accrue(bucketOf(cur), curTick() - lastEdge, powerOf(cur));
    cur = next;
    lastEdge = curTick();
}

void
Cpu::suspendAccounting()
{
    if (accountingSuspended)
        return;
    // Close the open interval, then stop integrating.
    account.accrue(bucketOf(cur), curTick() - lastEdge, powerOf(cur));
    lastEdge = curTick();
    accountingSuspended = true;
}

void
Cpu::resumeAccounting()
{
    accountingSuspended = false;
    lastEdge = curTick();
}

void
Cpu::accrueManual(power::Bucket b, Tick duration, double watts)
{
    account.accrue(b, duration, watts);
}

void
Cpu::beginSpin()
{
    if (cur != CpuState::Active)
        panic(name(), ": beginSpin in state ", cpuStateName(cur));
    switchTo(CpuState::Spinning);
}

void
Cpu::endSpin()
{
    if (cur != CpuState::Spinning)
        panic(name(), ": endSpin in state ", cpuStateName(cur));
    switchTo(CpuState::Active);
}

void
Cpu::enterSleep(const power::SleepState& s, OnWake on_wake)
{
    if (cur != CpuState::Active && cur != CpuState::Spinning)
        panic(name(), ": enterSleep in state ", cpuStateName(cur));

    episode = &s;
    onWake = std::move(on_wake);
    wakePending = false;
    abortEntry = false;
    flushTicks = 0;
    sleepEntryCounter(s).inc();
    if (auto* o = ctrl.checkObserver())
        o->onSleepEnter(nodeId, s.snoopable);

    if (!s.snoopable) {
        switchTo(CpuState::Flushing);
        statsGroup.scalar("flushes").inc();
        const Tick flush_start = curTick();
        ctrl.flushDirtyShared([this, flush_start]() {
            flushTicks = curTick() - flush_start;
            if (abortEntry) {
                // A wake trigger (e.g.\ the barrier released) arrived
                // mid-flush: abandon the sleep attempt.
                becomeActive();
                return;
            }
            startTransitionDown();
        });
        return;
    }
    startTransitionDown();
}

void
Cpu::startTransitionDown()
{
    switchTo(CpuState::TransitionDown);
    if (!episode->snoopable)
        ctrl.setSnoopable(false);
    transitionEnd = curTick() + episode->transitionLatency;
    eq.schedule(transitionEnd, [this]() {
        switchTo(CpuState::Sleeping);
        if (wakePending) {
            wakePending = false;
            startTransitionUp();
        }
    });
}

void
Cpu::startTransitionUp()
{
    switchTo(CpuState::TransitionUp);
    transitionEnd = curTick() + episode->transitionLatency;
    eq.schedule(transitionEnd, [this]() { becomeActive(); });
}

void
Cpu::becomeActive()
{
    switchTo(CpuState::Active);
    ctrl.setSnoopable(true);
    if (auto* o = ctrl.checkObserver())
        o->onSleepExit(nodeId);
    if (onWake) {
        OnWake cb = std::move(onWake);
        onWake = nullptr;
        if (faults) {
            // OS-preemption burst (Section 3.4.2 generalized): the CPU
            // is Active — and accrues active power — but the barrier
            // thread does not get the core back until the burst ends.
            Tick burst = faults->preemptionBurst(nodeId);
            if (burst > 0) {
                statsGroup.scalar("faultPreemptionBursts").inc();
                eq.scheduleIn(burst, [this, cb = std::move(cb)]() {
                    cb(wakeReason);
                });
                return;
            }
        }
        cb(wakeReason);
    }
}

Tick
Cpu::wakeRequest(mem::WakeReason reason)
{
    wakeCounter(reason).inc();
    switch (cur) {
      case CpuState::Active:
      case CpuState::Spinning:
        return curTick();

      case CpuState::Flushing:
        if (!abortEntry) {
            abortEntry = true;
            wakeReason = reason;
        }
        // The flush stream finishes, then the entry aborts; the cache
        // stays accessible the whole time.
        return curTick();

      case CpuState::TransitionDown:
        if (!wakePending) {
            wakePending = true;
            wakeReason = reason;
        }
        return transitionEnd + episode->transitionLatency;

      case CpuState::Sleeping:
        wakeReason = reason;
        startTransitionUp();
        return transitionEnd;

      case CpuState::TransitionUp:
        return transitionEnd;
    }
    return curTick();
}

stats::Scalar&
Cpu::wakeCounter(mem::WakeReason reason)
{
    stats::Scalar*& c = wakeCounters.at(static_cast<std::size_t>(reason));
    if (!c)
        c = &statsGroup.scalar(std::string("wakes.") +
                               wakeReasonName(reason));
    return *c;
}

stats::Scalar&
Cpu::sleepEntryCounter(const power::SleepState& s)
{
    for (const auto& [name, counter] : sleepCounters)
        if (name == s.name)
            return *counter;
    stats::Scalar& c = statsGroup.scalar("sleepEntries." + s.name);
    sleepCounters.emplace_back(s.name, &c);
    return c;
}

void
Cpu::finalize(Tick end)
{
    if (!accountingSuspended)
        account.accrue(bucketOf(cur), end - lastEdge, powerOf(cur));
    lastEdge = end;
}

} // namespace cpu
} // namespace tb
