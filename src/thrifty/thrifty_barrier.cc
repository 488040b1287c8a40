#include "thrifty/thrifty_barrier.hh"

#include <algorithm>
#include <utility>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "thrifty/spin_wait.hh"

namespace tb {
namespace thrifty {

ThriftyBarrier::ThriftyBarrier(EventQueue& queue, BarrierPc pc,
                               ThriftyRuntime& rt,
                               mem::MemorySystem& memory,
                               std::string name)
    : SimObject(queue, std::move(name)),
      barrierPc(pc),
      runtime(rt),
      backend(memory.backend()),
      fab(memory.fabric()),
      total(rt.numThreads()),
      localSense(total, 0),
      arrivalTick(total, 0),
      computeTime(total, 0),
      wakeTick(total, kTickNever),
      snap(total),
      parkedTc(total, nullptr),
      parkedCont(total),
      releaseReady(total, 0),
      releaseBit(total, 0),
      watchdog(total),
      episodeFaulty(total, 0),
      pendingEpisode(total),
      episodeOpen(total, 0)
{
    // Count, flag and published-BIT live on three distinct lines of a
    // shared page: check-in traffic and BIT reads must not disturb
    // the spinners'/monitors' flag copies.
    const Addr base = memory.addressMap().allocShared(mem::kPageBytes);
    countAddr = base;
    flagAddr = base + mem::kLineBytes;
    bitAddr = base + 2 * mem::kLineBytes;
    homeNode = memory.addressMap().home(countAddr);
    // Pre-insert this PC's predictor entry: runtime accesses (all at
    // homeNode) then never mutate the table structure, so barriers
    // whose homes land in different partitions touch disjoint entries.
    runtime.predictor().prepare(pc);
}

ThriftyBarrier::~ThriftyBarrier()
{
    for (auto& h : watchdog)
        h.cancel();
}

void
ThriftyBarrier::arrive(cpu::ThreadContext& tc, std::function<void()> cont)
{
    const ThreadId tid = tc.tid();
    if (tid >= total)
        panic(name(), ": thread ", tid, " outside barrier population");

    SyncStats& st = runtime.stats(tid);
    ++st.arrivals;
    const Tick now = tc.curTick();
    const Tick brts_tid = runtime.brts(tid);
    arrivalTick[tid] = now;
    computeTime[tid] = now - brts_tid;
    wakeTick[tid] = kTickNever;

    const std::uint64_t want = localSense[tid] ^ 1u;
    localSense[tid] = static_cast<std::uint8_t>(want);
    episodeFaulty[tid] = 0;
    episodeOpen[tid] = 0;

    obs::TraceSink* trace = runtime.traceSink();
    if (TB_TRACED(trace, obs::TraceCategory::Thrifty)) {
        // instanceIdx belongs to the count line's home; reading it
        // from the arriving thread is still deterministic, because
        // every stream runs in the one event queue's total order.
        trace->instant(obs::TraceCategory::Thrifty, "arrive",
                       now, tid,
                       {{"pc", barrierPc}, {"instance", instanceIdx}});
    }

    tc.atomic(
        countAddr,
        [this, &tc, tid, brts_tid](Tick home_now) {
            const std::uint64_t old = backend.read(countAddr);
            backend.write(countAddr, old + 1 == total ? 0 : old + 1);
            // First check-in arms this dynamic instance, at the
            // count's serialization point: the arm is then strictly
            // ordered before the release even when the completion
            // reply is delayed in the fabric (fault injection).
            if (old == 0) {
                if (auto* o = tc.controller().checkObserver())
                    o->onBarrierArmed(mem::lineAddr(flagAddr),
                                      instanceIdx);
            }
            homeCheckIn(tid, old, brts_tid, home_now);
            return old;
        },
        [this, &tc, tid, want,
         cont = std::move(cont)](std::uint64_t old) mutable {
            if (old + 1 == total)
                lastArrival(tc, tid, want, std::move(cont));
            else
                earlyArrival(tc, tid, want, std::move(cont));
        });
}

void
ThriftyBarrier::homeCheckIn(ThreadId tid, std::uint64_t old,
                            Tick brts_tid, Tick home_now)
{
    const ThriftyConfig& cfg = runtime.config();
    Snap& sn = snap[tid];
    sn = Snap{};
    sn.instance = instanceIdx;

    if (old + 1 != total) {
        // Early check-in: snapshot the prediction here, at the count's
        // serialization point — the only place the home-confined
        // predictor table may be read.
        if (cfg.oracle) {
            arrivedEarly.push_back(tid);
            return;
        }
        if (auto bit = runtime.predictor().predict(barrierPc, tid)) {
            sn.hasPrediction = 1;
            sn.predictedBit = *bit;
        }
        return;
    }

    // Last check-in: the serialization point of the count *is* the
    // release point, so the actual interval time is measured here
    // against the closer's own release timestamp (Section 3.2.1).
    const Tick actual_bit = home_now - brts_tid;
    sn.last = 1;
    sn.actualBit = actual_bit;

    // Feed the predictor, unless the sample is inordinately large
    // (context switch / I/O filter, Section 3.4.2).
    bool skip_update = false;
    if (cfg.underpredictionFilter > 0.0) {
        if (auto prev = runtime.predictor().stored(barrierPc)) {
            if (static_cast<double>(actual_bit) >
                cfg.underpredictionFilter * static_cast<double>(*prev)) {
                skip_update = true;
                ++runtime.stats(tid).filteredUpdates;
            }
        }
    }
    if (!skip_update)
        runtime.predictor().update(barrierPc, actual_bit);

    ++instanceIdx;
    ++runtime.stats(tid).instances;

    if (cfg.oracle && !arrivedEarly.empty()) {
        // The release notification to each parked thread is real
        // cross-node bookkeeping: it rides the NoC from the count's
        // home and pays the latency of a control message.
        std::vector<ThreadId> batch = std::move(arrivedEarly);
        arrivedEarly.clear();
        for (ThreadId etid : batch) {
            fab.sendControl(homeNode, static_cast<NodeId>(etid),
                            mem::kCtrlBytes,
                            [this, etid, actual_bit]() {
                                oracleRelease(etid, actual_bit);
                            });
        }
    }
}

void
ThriftyBarrier::lastArrival(cpu::ThreadContext& tc, ThreadId tid,
                            std::uint64_t want,
                            std::function<void()> cont)
{
    // The BIT and the instance index were fixed at the home's
    // serialization point; the reply carried them back in this
    // thread's Snap slot.
    const Tick actual_bit = snap[tid].actualBit;
    const std::uint64_t instance = snap[tid].instance;

    // Publish the BIT, and only then flip the flag (the sequencing
    // models the write fence of the paper's footnote 1).
    tc.store(bitAddr, actual_bit, [this, &tc, tid, want, actual_bit,
                                   instance,
                                   cont = std::move(cont)]() mutable {
        tc.store(flagAddr, want,
                 [this, &tc, tid, actual_bit, instance,
                  cont = std::move(cont)]() {
                     if (auto* o = tc.controller().checkObserver())
                         o->onBarrierReleased(mem::lineAddr(flagAddr),
                                              instance);
                     obs::TraceSink* trace = runtime.traceSink();
                     if (TB_TRACED(trace,
                                   obs::TraceCategory::Thrifty)) {
                         trace->instant(
                             obs::TraceCategory::Thrifty, "release",
                             tc.curTick(), tid,
                             {{"pc", barrierPc},
                              {"instance", instance},
                              {"bit", actual_bit}});
                     }
                     runtime.advanceBrts(tid, actual_bit);
                     runtime.stats(tid).totalStallTicks +=
                         static_cast<double>(tc.curTick() -
                                             arrivalTick[tid]);
                     traceDeparture(tid, actual_bit);
                     cont();
                 });
    });
}

void
ThriftyBarrier::earlyArrival(cpu::ThreadContext& tc, ThreadId tid,
                             std::uint64_t want,
                             std::function<void()> cont)
{
    const ThriftyConfig& cfg = runtime.config();
    SyncStats& st = runtime.stats(tid);

    if (cfg.oracle) {
        park(tc, tid, std::move(cont));
        return;
    }

    if (cfg.hardening.enabled && runtime.quarantined(tid, barrierPc)) {
        // Bottom of the degradation ladder: this (thread, barrier)
        // pair burned through its faulty-episode allowance, so it
        // takes the conventional sense-reversal spin until the
        // exponential backoff re-enables prediction. (Every stream
        // runs in the one event queue's total order, so reading the
        // shared quarantine map here is deterministic.)
        ++st.spins;
        spinOnFlag(tc, flagAddr, want,
                   [this, &tc, tid, cont = std::move(cont)]() mutable {
                       depart(tc, tid, std::move(cont));
                   });
        return;
    }

    // The prediction was snapshotted at the home's serialization
    // point; estimated wake-up = BRTS + predicted BIT, stall =
    // wake-up - now (Section 3.2.1).
    const power::SleepState* state = nullptr;
    Tick predicted_wake = 0;
    if (snap[tid].hasPrediction) {
        predicted_wake = runtime.brts(tid) + snap[tid].predictedBit;
        if (predicted_wake > tc.curTick())
            state = cfg.states.select(predicted_wake - tc.curTick());
    }

    if (!state) {
        // No/insufficient prediction, cutoff in force, or stall too
        // short for any state: the sleep() call returns immediately
        // and the thread spins the traditional way.
        ++st.spins;
        spinOnFlag(tc, flagAddr, want, [this, &tc, tid,
                                        cont = std::move(cont)]() mutable {
            depart(tc, tid, std::move(cont));
        });
        return;
    }

    // Program the flag monitor. It reads the flag in (making this node
    // a sharer so the release's invalidation reaches it) and refuses
    // the sleep if the flag already flipped.
    tc.controller().armFlagMonitor(
        flagAddr, want,
        [this, &tc, tid, want, state, predicted_wake,
         cont = std::move(cont)](bool already_flipped) mutable {
            SyncStats& stats = runtime.stats(tid);
            if (already_flipped) {
                // The thread never slept, so no wake-up timestamp is
                // recorded (the cutoff only judges actual sleepers).
                depart(tc, tid, std::move(cont));
                return;
            }

            const ThriftyConfig& conf = runtime.config();
            if (conf.wakeup != WakeupPolicy::External) {
                // Fire early enough that the upward transition
                // completes right at the predicted release.
                const Tick lead = state->transitionLatency;
                const Tick target =
                    predicted_wake > tc.curTick() + lead
                        ? predicted_wake - lead
                        : tc.curTick();
                tc.controller().armWakeTimer(target - tc.curTick());
            }
            if (conf.wakeup == WakeupPolicy::Internal)
                tc.controller().disarmFlagMonitor();

            ++stats.sleeps;
            if (stats.episodesEnabled ||
                TB_TRACED(runtime.traceSink(),
                          obs::TraceCategory::Thrifty)) {
                BarrierEpisode& ep = pendingEpisode[tid];
                ep = BarrierEpisode{};
                ep.pc = barrierPc;
                ep.instance = snap[tid].instance;
                ep.tid = tid;
                ep.predictedBit = predicted_wake - runtime.brts(tid);
                ep.sleepTick = tc.curTick();
                ep.sleepState = state->name;
                episodeOpen[tid] = 1;
            }
            if (conf.hardening.enabled) {
                // Safety watchdog: no sleep episode outlives a bounded
                // multiple of its own prediction, even if both wake-up
                // mechanisms fail (lost invalidation + dead timer).
                const Tick stall = predicted_wake > tc.curTick()
                                       ? predicted_wake - tc.curTick()
                                       : 0;
                const Tick bound = std::max(
                    static_cast<Tick>(
                        conf.hardening.watchdogFactor *
                        static_cast<double>(stall)),
                    conf.hardening.watchdogMin);
                watchdog[tid] = tc.eventQueue().scheduleIn(
                    bound, [this, &tc, tid]() {
                        ++runtime.stats(tid).watchdogFires;
                        episodeFaulty[tid] = 1;
                        tc.controller().forceWake(
                            mem::WakeReason::Watchdog);
                    });
            }
            tc.cpu().enterSleep(
                *state,
                [this, &tc, tid, want,
                 cont = std::move(cont)](mem::WakeReason reason) mutable {
                    watchdog[tid].cancel();
                    wakeTick[tid] = tc.curTick();
                    if (episodeOpen[tid]) {
                        BarrierEpisode& ep = pendingEpisode[tid];
                        ep.wakeTick = tc.curTick();
                        ep.wakeReason = mem::wakeReasonName(reason);
                        ep.flushTicks = tc.cpu().episodeFlushTicks();
                        obs::TraceSink* trace = runtime.traceSink();
                        if (TB_TRACED(trace,
                                      obs::TraceCategory::Thrifty)) {
                            trace->complete(
                                obs::TraceCategory::Thrifty, "sleep",
                                ep.sleepTick,
                                tc.curTick() - ep.sleepTick, tid,
                                {{"state", ep.sleepState},
                                 {"predicted_bit", ep.predictedBit},
                                 {"wake", ep.wakeReason}});
                        }
                    }
                    // Residual spin: verify the flag actually flipped
                    // (guards early wake-ups and false wake-ups).
                    std::function<void()> finish =
                        [this, &tc, tid,
                         cont = std::move(cont)]() mutable {
                            SyncStats& stf = runtime.stats(tid);
                            stf.residualSpinTicks +=
                                static_cast<double>(tc.curTick() -
                                                    wakeTick[tid]);
                            ++stf.residualSpins;
                            if (episodeOpen[tid]) {
                                pendingEpisode[tid].residualTicks =
                                    tc.curTick() - wakeTick[tid];
                            }
                            const ThriftyConfig& c = runtime.config();
                            if (c.hardening.enabled)
                                runtime.noteSleepEpisode(
                                    tid, barrierPc,
                                    episodeFaulty[tid] != 0);
                            depart(tc, tid, std::move(cont));
                        };
                    const ThriftyConfig& c = runtime.config();
                    if (c.hardening.enabled) {
                        // Bounded residual spin: trust the quiet
                        // cache-hit loop only so long, then escalate
                        // to periodic coherent re-reads of the flag.
                        spinOnFlagBounded(
                            tc.eventQueue(), tc, flagAddr, want,
                            c.hardening.residualSpinBudget,
                            c.hardening.recheckInterval,
                            [this, tid]() {
                                ++runtime.stats(tid)
                                      .residualEscalations;
                                episodeFaulty[tid] = 1;
                            },
                            std::move(finish));
                    } else {
                        spinOnFlag(tc, flagAddr, want,
                                   std::move(finish));
                    }
                });
        });
}

void
ThriftyBarrier::depart(cpu::ThreadContext& tc, ThreadId tid,
                       std::function<void()> cont)
{
    // Load the published BIT and advance the local release timestamp;
    // then check how late the wake-up was (Section 3.3.3).
    tc.load(bitAddr, [this, &tc, tid, cont = std::move(cont)](
                         std::uint64_t bit_val) mutable {
        runtime.advanceBrts(tid, bit_val);
        const Tick release_ts = runtime.brts(tid);
        const ThriftyConfig& cfg = runtime.config();
        if (wakeTick[tid] != kTickNever &&
            cfg.overpredictionThreshold >= 0.0 &&
            wakeTick[tid] > release_ts) {
            const Tick penalty = wakeTick[tid] - release_ts;
            if (static_cast<double>(penalty) >
                cfg.overpredictionThreshold *
                    static_cast<double>(bit_val)) {
                ++runtime.stats(tid).cutoffs;
                // The cutoff flips home-confined predictor state, so
                // the disable rides to the PC's home as a control
                // message with real NoC cost; predictions snapshotted
                // before it lands still count as enabled.
                fab.sendControl(static_cast<NodeId>(tid), homeNode,
                                mem::kCtrlBytes, [this, tid]() {
                                    runtime.predictor().disable(
                                        barrierPc, tid);
                                });
            }
        }
        if (episodeOpen[tid]) {
            episodeOpen[tid] = 0;
            SyncStats& st = runtime.stats(tid);
            if (st.episodesEnabled) {
                BarrierEpisode ep = std::move(pendingEpisode[tid]);
                ep.actualBit = bit_val;
                ep.releaseTs = release_ts;
                st.episodes.push_back(std::move(ep));
            }
        }
        runtime.stats(tid).totalStallTicks +=
            static_cast<double>(tc.curTick() - arrivalTick[tid]);
        traceDeparture(tid, bit_val);
        cont();
    });
}

void
ThriftyBarrier::park(cpu::ThreadContext& tc, ThreadId tid,
                     std::function<void()> cont)
{
    if (releaseReady[tid]) {
        // The release notification overtook this thread's own check-in
        // reply (same home->node channel, but the reply pays extra
        // controller completion latency): depart immediately.
        releaseReady[tid] = 0;
        const Tick bit = releaseBit[tid];
        const Tick stall = tc.curTick() - arrivalTick[tid];
        accrueOracleDwell(tc.cpu(), stall, tid);
        runtime.advanceBrts(tid, bit);
        runtime.stats(tid).totalStallTicks +=
            static_cast<double>(stall);
        traceDeparture(tid, bit);
        tc.eventQueue().scheduleIn(0, std::move(cont));
        return;
    }
    tc.cpu().suspendAccounting();
    parkedTc[tid] = &tc;
    parkedCont[tid] = std::move(cont);
}

void
ThriftyBarrier::oracleRelease(ThreadId tid, Tick actual_bit)
{
    if (!parkedCont[tid]) {
        // The notification raced ahead of the thread's check-in
        // completion; leave it for park() to consume.
        releaseReady[tid] = 1;
        releaseBit[tid] = actual_bit;
        return;
    }
    cpu::ThreadContext& tc = *parkedTc[tid];
    std::function<void()> cont = std::move(parkedCont[tid]);
    parkedTc[tid] = nullptr;
    parkedCont[tid] = nullptr;
    const Tick stall = tc.curTick() - arrivalTick[tid];
    accrueOracleDwell(tc.cpu(), stall, tid);
    runtime.advanceBrts(tid, actual_bit);
    runtime.stats(tid).totalStallTicks += static_cast<double>(stall);
    traceDeparture(tid, actual_bit);
    tc.cpu().resumeAccounting();
    // Perfect wake-up: the thread resumes at the notification.
    tc.eventQueue().scheduleIn(0, std::move(cont));
}

void
ThriftyBarrier::accrueOracleDwell(cpu::Cpu& cpu, Tick stall,
                                  ThreadId tid)
{
    const power::PowerParams& pp = cpu.powerParams();
    const ThriftyConfig& cfg = runtime.config();
    SyncStats& st = runtime.stats(tid);

    // Perfect knowledge: pick the minimum-energy option between
    // spinning the whole stall and each sleep state that fits.
    double best_energy = pp.spinWatts() * ticksToSeconds(stall);
    const power::SleepState* best = nullptr;
    for (std::size_t i = 0; i < cfg.states.size(); ++i) {
        const power::SleepState& s = cfg.states.at(i);
        if (2 * s.transitionLatency > stall)
            continue;
        const double sleep_w = pp.sleepWatts(s.powerFraction);
        const double trans_w = 0.5 * (pp.activeWatts() + sleep_w);
        const double e =
            trans_w * ticksToSeconds(2 * s.transitionLatency) +
            sleep_w * ticksToSeconds(stall - 2 * s.transitionLatency);
        if (e < best_energy) {
            best_energy = e;
            best = &s;
        }
    }

    if (!best) {
        cpu.accrueManual(power::Bucket::Spin, stall, pp.spinWatts());
        ++st.spins;
        return;
    }
    const double sleep_w = pp.sleepWatts(best->powerFraction);
    const double trans_w = 0.5 * (pp.activeWatts() + sleep_w);
    cpu.accrueManual(power::Bucket::Transition,
                     2 * best->transitionLatency, trans_w);
    cpu.accrueManual(power::Bucket::Sleep,
                     stall - 2 * best->transitionLatency, sleep_w);
    ++st.sleeps;
}

void
ThriftyBarrier::traceDeparture(ThreadId tid, Tick bit)
{
    SyncStats& st = runtime.stats(tid);
    if (!st.traceEnabled)
        return;
    BarrierTraceEntry e;
    e.pc = barrierPc;
    e.instance = snap[tid].instance;
    e.tid = tid;
    e.bit = bit;
    e.compute = std::min(computeTime[tid], bit);
    e.stall = bit - e.compute;
    st.trace.push_back(e);
}

} // namespace thrifty
} // namespace tb
