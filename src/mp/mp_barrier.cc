#include "mp/mp_barrier.hh"

#include <utility>

#include "sim/logging.hh"

namespace tb {
namespace mp {

MpBarrier::MpBarrier(EventQueue& queue, thrifty::BarrierPc pc,
                     thrifty::ThriftyRuntime& rt, MpFabric& fabric_,
                     std::vector<cpu::Cpu*> cpu_list,
                     NodeId coordinator, std::string name)
    : SimObject(queue, std::move(name)),
      barrierPc(pc),
      runtime(rt),
      fabric(fabric_),
      cpus(std::move(cpu_list)),
      coord(coordinator),
      total(rt.numThreads()),
      waiters(total)
{
    if (runtime.config().oracle)
        fatal(this->name(),
              ": oracle mode is not implemented for the MP barrier");
    if (cpus.size() < total)
        fatal(this->name(), ": need one CPU per thread");
    if (coord >= fabric.numNodes())
        fatal(this->name(), ": coordinator outside fabric");

    // Register a demultiplexing handler on every endpoint: this
    // barrier consumes messages whose payload a == pc; other barriers
    // register their own handlers alongside.
    for (NodeId n = 0; n < total; ++n) {
        fabric.endpoint(n).addHandler([this,
                                       n](const MpMessage& msg) {
            if (msg.a != barrierPc)
                return;
            if (msg.tag == kArrive)
                onArrive(msg);
            else if (msg.tag == kRelease)
                onRelease(static_cast<ThreadId>(n), msg);
            else
                panic(this->name(), ": unknown tag ", msg.tag);
        });
    }
}

void
MpBarrier::arrive(ThreadId tid, std::function<void()> cont)
{
    if (tid >= total)
        panic(name(), ": thread ", tid, " outside barrier population");
    Waiter& w = waiters[tid];
    if (w.waiting)
        panic(name(), ": thread ", tid, " arrived twice");

    thrifty::SyncStats& st = runtime.stats();
    ++st.arrivals;
    w.cont = std::move(cont);
    w.released = false;
    w.waiting = true;
    w.spinning = false;
    w.arrival = curTick();
    w.wakeTick = kTickNever;
    w.publishedBit = 0;
    w.instance = instanceIdx;

    MpMessage m;
    m.tag = kArrive;
    m.a = barrierPc;
    m.b = tid;
    m.bytes = 16;
    fabric.endpoint(tid).send(coord, m);

    wait(tid);
}

void
MpBarrier::wait(ThreadId tid)
{
    Waiter& w = waiters[tid];
    const thrifty::ThriftyConfig& cfg = runtime.config();
    thrifty::SyncStats& st = runtime.stats();
    cpu::Cpu& cpu = *cpus[tid];

    // Predict the stall ahead, exactly as in the shared-memory
    // design (Section 3.2).
    const thrifty::SleepChoice choice = runtime.chooseSleep(
        runtime.predictor().predict(barrierPc, tid), tid, curTick());
    if (!choice.state) {
        // Poll the NIC for the release (the MP spinloop).
        ++st.spins;
        w.spinning = true;
        cpu.beginSpin();
        return; // resumed by onRelease()
    }

    ++st.sleeps;
    if (cfg.wakeup != thrifty::WakeupPolicy::Internal) {
        fabric.endpoint(tid).armWakeOnMessage([this, tid]() {
            cpus[tid]->wakeRequest(mem::WakeReason::ExternalFlag);
        });
    }
    if (cfg.wakeup != thrifty::WakeupPolicy::External) {
        const Tick target =
            curTick() + thrifty::wakeTimerDelay(choice.predictedWake,
                                                curTick(), *choice.state);
        w.timer.cancel();
        w.timer = eq.schedule(target, [this, tid]() {
            cpus[tid]->wakeRequest(mem::WakeReason::Timer);
        });
    }

    cpu.enterSleep(*choice.state, [this, tid](mem::WakeReason) {
        Waiter& ww = waiters[tid];
        ww.wakeTick = curTick();
        if (ww.released) {
            depart(tid);
            return;
        }
        // Woke before the release (early timer): residual poll.
        ww.spinning = true;
        cpus[tid]->beginSpin();
        ++runtime.stats().residualSpins;
    });
}

void
MpBarrier::onArrive(const MpMessage& msg)
{
    (void)msg;
    if (++arrived < total)
        return;
    arrived = 0;

    // All checked in: measure the interval on the coordinator's
    // clock, train the predictor (unless filtered), broadcast.
    const Tick actual_bit = curTick() - lastReleaseTick;
    lastReleaseTick = curTick();

    runtime.recordInterval(barrierPc, actual_bit);
    ++instanceIdx;

    for (NodeId n = 0; n < total; ++n) {
        MpMessage m;
        m.tag = kRelease;
        m.a = barrierPc;
        m.b = actual_bit;
        m.bytes = 16;
        fabric.endpoint(coord).send(n, m);
    }
}

void
MpBarrier::onRelease(ThreadId tid, const MpMessage& msg)
{
    Waiter& w = waiters[tid];
    if (!w.waiting)
        panic(name(), ": release for a thread that is not waiting");
    w.released = true;
    w.publishedBit = msg.b;
    fabric.endpoint(tid).disarmWakeOnMessage();
    // The external path won the race (or the thread is polling):
    // the internal timer has nothing left to do.
    if (runtime.config().wakeup != thrifty::WakeupPolicy::Internal)
        w.timer.cancel();

    if (w.spinning) {
        // Polling (conventional wait or residual poll): the message
        // arrival is observed on the next poll iteration.
        if (w.wakeTick != kTickNever) {
            runtime.stats().residualSpinTicks +=
                static_cast<double>(curTick() - w.wakeTick);
        }
        w.spinning = false;
        cpus[tid]->endSpin();
        depart(tid);
        return;
    }
    // Asleep (or mid-transition): the NIC wake (hybrid/external) ran
    // just before this handler, or the timer (internal) will fire
    // later; either way the enterSleep wake callback sees
    // released == true and departs.
}

void
MpBarrier::depart(ThreadId tid)
{
    Waiter& w = waiters[tid];
    runtime.advanceBrts(tid, w.publishedBit);
    const Tick release_ts = runtime.brts(tid);
    if (runtime.overpredicted(w.wakeTick, release_ts, w.publishedBit))
        runtime.predictor().disable(barrierPc, tid);
    // Compute time since the old BRTS; 0 if the thread arrived
    // before it.
    const Tick old_brts = release_ts - w.publishedBit;
    const Tick compute = w.arrival > old_brts ? w.arrival - old_brts : 0;
    runtime.recordDeparture(barrierPc, w.instance, tid, w.publishedBit,
                            compute, curTick() - w.arrival);

    w.waiting = false;
    auto cont = std::move(w.cont);
    w.cont = nullptr;
    cont();
}

} // namespace mp
} // namespace tb
