#include "mem/cache_controller.hh"

#include <cstdio>
#include <utility>

#include "obs/trace.hh"
#include "sim/fault_hooks.hh"
#include "sim/logging.hh"

namespace tb {
namespace mem {

const char*
wakeReasonName(WakeReason r)
{
    switch (r) {
      case WakeReason::ExternalFlag:   return "external-flag";
      case WakeReason::Timer:          return "timer";
      case WakeReason::BufferOverflow: return "buffer-overflow";
      case WakeReason::Intervention:   return "intervention";
      case WakeReason::Watchdog:       return "watchdog";
    }
    return "?";
}

CacheController::CacheController(EventQueue& queue, NodeId node,
                                 Fabric& fabric_, Backend& backend_,
                                 const ControllerConfig& config,
                                 std::string name, const Hooks* hooks)
    : SimObject(queue, std::move(name)),
      nodeId(node),
      fabric(fabric_),
      backend(backend_),
      cfg(config),
      l1(config.l1),
      l2(config.l2),
      hooks_(hooks)
{
    if (cfg.l2Rt < cfg.l1Rt)
        fatal("L2 round trip must not be shorter than L1's");
}

CacheController::~CacheController()
{
    // The timer callback captures `this`; never let it outlive us.
    wakeTimer.cancel();
}

// ----------------------------------------------------------------------
// Demand path.
// ----------------------------------------------------------------------

void
CacheController::load(Addr a, LoadCallback done)
{
    Pending p;
    p.kind = Pending::Kind::Load;
    p.addr = a;
    p.line = lineAddr(a);
    p.loadDone = std::move(done);
    startAccess(std::move(p));
}

void
CacheController::store(Addr a, std::uint64_t v, DoneCallback done)
{
    Pending p;
    p.kind = Pending::Kind::Store;
    p.addr = a;
    p.line = lineAddr(a);
    p.storeValue = v;
    p.storeDone = std::move(done);
    startAccess(std::move(p));
}

void
CacheController::atomicRmw(Addr a, std::function<std::uint64_t(Tick)> op,
                           LoadCallback done)
{
    Pending p;
    p.kind = Pending::Kind::Rmw;
    p.addr = a;
    p.line = lineAddr(a);
    p.rmwOp = std::move(op);
    p.loadDone = std::move(done);
    startAccess(std::move(p));
}

void
CacheController::startAccess(Pending p)
{
    if (pending)
        panic(name(), ": demand access while another is outstanding");
    if (!snoopable_)
        panic(name(), ": demand access while cache is asleep");
    p.startTick = curTick();
    pending = std::move(p);

    // Atomics bypass the local hierarchy entirely (fetch-op at home).
    if (pending->kind == Pending::Kind::Rmw) {
        hot.rmwIssued.inc();
        eq.scheduleIn(cfg.l1Rt, [this]() {
            Msg m;
            m.type = MsgType::AtomicRmw;
            m.line = pending->line;
            m.src = nodeId;
            // The word address rides along so the home (and an attached
            // checker) can attribute the fetch-op's effect.
            m.storeAddr = pending->addr;
            m.rmwOp = pending->rmwOp;
            sendToDir(std::move(m));
        });
        return;
    }

    eq.scheduleIn(cfg.l1Rt, [this]() {
        const Addr line = pending->line;
        CacheArray::Line* e1 = l1.find(line);
        const bool is_store = pending->kind == Pending::Kind::Store;
        if (e1 && (!is_store || writable(e1->state()))) {
            hot.l1Hits.inc();
            l1.touch(*e1);
            if (is_store && e1->state() == LineState::Exclusive) {
                // Silent E -> M upgrade, mirrored in L2.
                l1.setState(*e1, LineState::Modified);
                CacheArray::Line* e2 = l2.find(line);
                if (!e2)
                    panic(name(), ": inclusion violated for line ", line);
                l2.setState(*e2, LineState::Modified);
            } else if (is_store) {
                CacheArray::Line* e2 = l2.find(line);
                if (!e2)
                    panic(name(), ": inclusion violated for line ", line);
                l2.setState(*e2, LineState::Modified);
            }
            if (is_store)
                noteLine(line, LineState::Modified);
            completePending();
            return;
        }
        hot.l1Misses.inc();
        eq.scheduleIn(cfg.l2Rt - cfg.l1Rt,
                      [this, line]() { lookupL2(line); });
    });
}

void
CacheController::lookupL2(Addr line)
{
    CacheArray::Line* e2 = l2.find(line);
    const bool is_store = pending->kind == Pending::Kind::Store;

    if (e2 && (!is_store || writable(e2->state()))) {
        hot.l2Hits.inc();
        l2.touch(*e2);
        if (is_store) {
            l2.setState(*e2, LineState::Modified);
            noteLine(line, LineState::Modified);
        }
        fillL1(line, e2->state());
        completePending();
        return;
    }
    hot.l2Misses.inc();

    Msg m;
    m.line = line;
    m.src = nodeId;
    if (is_store) {
        m.storeAddr = pending->addr;
        m.storeValue = pending->storeValue;
        m.hasStore = true;
        if (e2) {
            // Shared copy present: request ownership only.
            hot.upgrades.inc();
            m.type = MsgType::Upgrade;
        } else {
            m.type = MsgType::GetX;
        }
    } else {
        m.type = MsgType::GetS;
    }
    sendToDir(std::move(m));
}

void
CacheController::sendToDir(Msg msg)
{
    fabric.toDirectory(nodeId, std::move(msg));
}

void
CacheController::fillL1(Addr line, LineState state)
{
    if (CacheArray::Line* e1 = l1.find(line)) {
        l1.setState(*e1, state);
        l1.touch(*e1);
        return;
    }
    // L1 victims need no action: inclusion keeps their state in L2.
    (void)l1.insert(line, state);
}

void
CacheController::handleL2Victim(const CacheArray::Victim& victim)
{
    if (!victim.valid)
        return;
    hot.l2Evictions.inc();
    noteLine(victim.addr, LineState::Invalid);
    l1.invalidate(victim.addr);
    fireWatches(victim.addr);
    if (victim.state == LineState::Modified) {
        wbBuffer.insert(victim.addr);
        sendToDir(makeMsg(MsgType::PutM, victim.addr, nodeId, 0));
    }
    // Shared / Exclusive-clean victims drop silently; the directory
    // copes with stale sharer bits (controllers ack Inv for absent
    // lines) and stale owners (OwnerStale).
}

void
CacheController::fillBoth(Addr line, LineState state)
{
    if (l2.find(line)) {
        // Only reachable for UpgradeAck races; refresh the state.
        CacheArray::Line* e2 = l2.find(line);
        l2.setState(*e2, state);
        l2.touch(*e2);
    } else {
        handleL2Victim(l2.insert(line, state));
    }
    noteLine(line, state);
    fillL1(line, state);
}

void
CacheController::completePending()
{
    if (!pending)
        panic(name(), ": completing with no pending access");
    Pending p = std::move(*pending);
    pending.reset();

    if (TB_TRACED(traceSink(), obs::TraceCategory::Mem)) {
        traceSink()->complete(
            obs::TraceCategory::Mem,
            p.kind == Pending::Kind::Load ? "load" : "store",
            p.startTick, curTick() - p.startTick, nodeId,
            {{"line", p.line}});
    }
    switch (p.kind) {
      case Pending::Kind::Load: {
        const std::uint64_t v = backend.read(p.addr);
        if (auto* ob = checkObserver())
            ob->onLoadValue(nodeId, p.addr, v);
        p.loadDone(v);
        break;
      }
      case Pending::Kind::Store:
        backend.write(p.addr, p.storeValue);
        if (auto* ob = checkObserver())
            ob->onStoreSerialized(nodeId, p.addr, p.storeValue);
        p.storeDone();
        break;
      case Pending::Kind::Rmw:
        panic("RMW must complete through RmwResult");
    }
}

// ----------------------------------------------------------------------
// Fabric message handling.
// ----------------------------------------------------------------------

void
CacheController::receive(const Msg& msg)
{
    if (protocolTraced(msg.line)) {
        fprintf(stderr,
                "[%12lu] ctrl%u <- %-13s (l2=%s pending=%d)\n",
                curTick(), nodeId, msgTypeName(msg.type),
                lineStateName(l2State(msg.line)),
                static_cast<int>(pending.has_value()));
    }
    switch (msg.type) {
      case MsgType::DataShared:
        fillBoth(msg.line, LineState::Shared);
        completePending();
        break;
      case MsgType::DataExclusive:
        fillBoth(msg.line, LineState::Exclusive);
        completePending();
        break;
      case MsgType::DataModified:
        fillBoth(msg.line, LineState::Modified);
        completePending();
        break;
      case MsgType::UpgradeAck:
        // Our Shared copy may have been invalidated while the upgrade
        // was queued at the directory; (re)install Modified either way.
        fillBoth(msg.line, LineState::Modified);
        completePending();
        break;
      case MsgType::RmwResult: {
        if (!pending || pending->kind != Pending::Kind::Rmw)
            panic(name(), ": stray RmwResult");
        Pending p = std::move(*pending);
        pending.reset();
        if (TB_TRACED(traceSink(), obs::TraceCategory::Mem)) {
            traceSink()->complete(obs::TraceCategory::Mem, "rmw",
                            p.startTick, curTick() - p.startTick,
                            nodeId, {{"line", p.line}});
        }
        p.loadDone(msg.rmwOld);
        break;
      }
      case MsgType::WbAck:
        wbBuffer.erase(msg.line);
        break;
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
        handleFwd(msg);
        break;
      default:
        panic(name(), ": unexpected message ", msgTypeName(msg.type));
    }
}

void
CacheController::handleInv(const Msg& msg)
{
    hot.invsReceived.inc();
    const Addr line = msg.line;
    const NodeId home = msg.src;

    // Invalidations only ever target clean (Shared) or absent lines in
    // this protocol, so the controller can acknowledge immediately even
    // while the CPU sleeps (Section 3.1 of the paper).
    fabric.toDirectory(nodeId, makeMsg(MsgType::InvAck, line, nodeId, 0));
    (void)home;

    if (snoopable_) {
        dropLine(line);
    } else if (l2.find(line)) {
        // The ack above is the invalidation's linearization point: the
        // copy is logically dead from here on, the array bits are just
        // unreachable until wake-up.
        noteLine(line, LineState::Invalid);
        deferred.push_back(line);
        hot.invsDeferred.inc();
        if (deferred.size() > cfg.invalBufferEntries) {
            statsGroup.scalar("bufferOverflowWakes").inc();
            triggerWake(WakeReason::BufferOverflow);
        }
    }

    fireWatches(line);

    maybeFireFlagMonitor(line);
}

void
CacheController::handleFwd(const Msg& msg)
{
    hot.fwdsReceived.inc();
    if (auto* ob = checkObserver())
        ob->onInterventionReceived(nodeId, msg.line);
    if (snoopable_) {
        serveFwd(msg);
        return;
    }

    // CPU asleep in a non-snooping state. Clean data can be handled
    // from the (never-gated) controller tags; dirty data requires the
    // cache array, so wake the CPU and serve when it is accessible.
    const CacheArray::Line* e2 = l2.find(msg.line);
    const bool dirty_in_cache = e2 && e2->state() == LineState::Modified;
    if (!dirty_in_cache) {
        serveFwd(msg);
        return;
    }
    statsGroup.scalar("interventionWakes").inc();
    const Tick ready = triggerWake(WakeReason::Intervention);
    Msg copy = msg;
    eq.schedule(ready, [this, copy]() { serveFwd(copy); });
}

void
CacheController::serveFwd(const Msg& msg)
{
    if (auto* ob = checkObserver())
        ob->onInterventionServed(nodeId, msg.line);
    if (msg.requester != kInvalidNode) {
        serveFwdThreeHop(msg);
        return;
    }
    const Addr line = msg.line;
    const bool is_gets = msg.type == MsgType::FwdGetS;
    CacheArray::Line* e2 = l2.find(line);

    if (e2 && e2->state() == LineState::Modified) {
        std::uint64_t kept = 0;
        if (is_gets) {
            // Owner keeps a Shared copy and supplies the data.
            l2.setState(*e2, LineState::Shared);
            if (CacheArray::Line* e1 = l1.find(line))
                l1.setState(*e1, LineState::Shared);
            noteLine(line, LineState::Shared);
            kept = 1;
        } else {
            dropLine(line);
        }
        fabric.toDirectory(nodeId,
                           makeMsg(MsgType::OwnerData, line, nodeId, kept));
        return;
    }

    if (wbBuffer.count(line)) {
        // The dirty line is in flight to home; serve from the buffer
        // (data already coherent in the backend), copy not retained.
        fabric.toDirectory(nodeId,
                           makeMsg(MsgType::OwnerData, line, nodeId, 0));
        return;
    }

    if (e2 && e2->state() == LineState::Exclusive) {
        // Clean exclusive: memory is current. On FwdGetS downgrade to
        // Shared and keep the copy (kept flag travels in rmwOld); on
        // FwdGetX relinquish it.
        std::uint64_t kept = 0;
        if (is_gets) {
            l2.setState(*e2, LineState::Shared);
            if (CacheArray::Line* e1 = l1.find(line))
                l1.setState(*e1, LineState::Shared);
            noteLine(line, LineState::Shared);
            kept = 1;
        } else {
            dropLine(line);
        }
        fabric.toDirectory(nodeId, makeMsg(MsgType::OwnerStale, line, nodeId, kept));
        return;
    }

    // Silently dropped: memory is current, nothing retained.
    fabric.toDirectory(nodeId,
                       makeMsg(MsgType::OwnerStale, line, nodeId, 0));
}

void
CacheController::serveFwdThreeHop(const Msg& msg)
{
    const Addr line = msg.line;
    const bool is_gets = msg.type == MsgType::FwdGetS;
    CacheArray::Line* e2 = l2.find(line);
    const bool in_wb = wbBuffer.count(line) != 0;

    if (!e2 && !in_wb) {
        // Silently dropped clean line: fall back to the home path
        // (memory is current there).
        fabric.toDirectory(
            nodeId, makeMsg(MsgType::OwnerStale, line, nodeId, 0));
        return;
    }

    const bool dirty =
        in_wb || (e2 && e2->state() == LineState::Modified);
    bool kept = false;
    if (e2) {
        if (is_gets) {
            l2.setState(*e2, LineState::Shared);
            if (CacheArray::Line* e1 = l1.find(line))
                l1.setState(*e1, LineState::Shared);
            noteLine(line, LineState::Shared);
            kept = true;
        } else {
            dropLine(line);
        }
    }

    // 3-hop serialization point: a forwarded store commits here, so
    // the direct data grant and anything later serialized at home
    // both observe it.
    if (!is_gets && msg.hasStore) {
        backend.write(msg.storeAddr, msg.storeValue);
        if (auto* ob = checkObserver())
            ob->onStoreSerialized(msg.requester, msg.storeAddr,
                                   msg.storeValue);
    }

    hot.threeHopServes.inc();
    fabric.toController(nodeId, msg.requester,
                        makeMsg(is_gets ? MsgType::DataShared
                                        : MsgType::DataModified,
                                line, nodeId, 0));
    Msg done = makeMsg(MsgType::OwnerHandled, line, nodeId, 0);
    done.ownerKept = kept;
    done.ownerWasDirty = dirty;
    fabric.toDirectory(nodeId, std::move(done));
}

void
CacheController::dropLine(Addr line)
{
    noteLine(line, LineState::Invalid);
    l1.invalidate(line);
    l2.invalidate(line);
    // Anyone spinning on this line must reload (and would, in
    // hardware: the next spin iteration misses).
    fireWatches(line);
    // The flag monitor triggers on any coherence action that removes
    // the monitored line: plain invalidations, but also interventions
    // (another thread writing the flag while we hold it exclusive).
    maybeFireFlagMonitor(line);
}

// ----------------------------------------------------------------------
// Spin watches.
// ----------------------------------------------------------------------

void
CacheController::watchLine(Addr a, std::function<void()> on_inval)
{
    watches[lineAddr(a)].push_back(std::move(on_inval));
}

void
CacheController::clearWatches(Addr a)
{
    watches.erase(lineAddr(a));
}

void
CacheController::fireWatches(Addr line)
{
    auto it = watches.find(line);
    if (it == watches.end())
        return;
    std::vector<std::function<void()>> cbs = std::move(it->second);
    watches.erase(it);
    for (auto& cb : cbs)
        cb();
}

// ----------------------------------------------------------------------
// Thrifty hooks.
// ----------------------------------------------------------------------

void
CacheController::armFlagMonitor(Addr a, std::uint64_t want,
                                std::function<void(bool)> done)
{
    // The monitor logic reads the flag through the cache, installing a
    // shared copy; the release's invalidation then reaches this node.
    load(a, [this, a, want, done = std::move(done)](std::uint64_t v) {
        if (v == want) {
            done(true); // already flipped: the CPU must not sleep
            return;
        }
        flagMon.armed = true;
        flagMon.addr = a;
        flagMon.line = lineAddr(a);
        flagMon.want = want;
        done(false);
    });
}

void
CacheController::disarmFlagMonitor()
{
    flagMon.armed = false;
}

void
CacheController::injectSpuriousInvalidation(Addr a)
{
    const Addr line = lineAddr(a);
    hot.spuriousInvals.inc();
    if (flagMon.armed && flagMon.line == line)
        statsGroup.scalar("falseWakes").inc();
    if (snoopable_) {
        dropLine(line); // fires watches and the flag monitor
        return;
    }
    if (l2.find(line)) {
        noteLine(line, LineState::Invalid);
        deferred.push_back(line);
    }
    fireWatches(line);
    maybeFireFlagMonitor(line);
}

void
CacheController::maybeFireFlagMonitor(Addr line)
{
    if (!flagMon.armed || flagMon.line != line)
        return;
    if (auto* faults = faultHooks()) {
        WakeDeliveryFault f = faults->wakeDelivery(nodeId);
        if (f.drop) {
            // The wake-up notification is swallowed between the
            // monitor's match logic and the wake pin. The monitor
            // disarms (the match consumed the event), so only the
            // timer, a buffer overflow, or the runtime's watchdog can
            // still end this sleep episode.
            flagMon.armed = false;
            statsGroup.scalar("faultDroppedWakes").inc();
            return;
        }
        if (f.duplicate) {
            // Deliver now and replay later; the replay re-checks the
            // monitor so it can only wake a *future* episode early
            // (a spurious wake), never double-fire this one.
            statsGroup.scalar("faultDupWakes").inc();
            eq.scheduleIn(f.delay,
                          [this, line]() { replayFlagWake(line); });
        } else if (f.delay > 0) {
            statsGroup.scalar("faultDelayedWakes").inc();
            eq.scheduleIn(f.delay,
                          [this, line]() { replayFlagWake(line); });
            return;
        }
    }
    flagMon.armed = false;
    statsGroup.scalar("externalWakes").inc();
    triggerWake(WakeReason::ExternalFlag);
}

void
CacheController::replayFlagWake(Addr line)
{
    // Guarded redelivery: the episode may have ended meanwhile (timer
    // or watchdog won the race and disarmed the monitor).
    if (!flagMon.armed || flagMon.line != line)
        return;
    flagMon.armed = false;
    statsGroup.scalar("externalWakes").inc();
    triggerWake(WakeReason::ExternalFlag);
}

void
CacheController::armWakeTimer(Tick delta)
{
    wakeTimer.cancel();
    if (auto* faults = faultHooks()) {
        if (faults->wakeTimerFails(nodeId)) {
            // The timer hardware fails to arm: nothing will fire.
            statsGroup.scalar("faultTimerFailures").inc();
            return;
        }
        Tick skewed = faults->wakeTimerSkew(nodeId, delta);
        if (skewed != delta) {
            statsGroup.scalar("faultTimerDrifts").inc();
            delta = skewed;
        }
    }
    wakeTimer = eq.scheduleIn(delta, [this]() {
        statsGroup.scalar("timerWakes").inc();
        triggerWake(WakeReason::Timer);
    });
}

void
CacheController::disarmWakeTimer()
{
    wakeTimer.cancel();
}

Tick
CacheController::triggerWake(WakeReason reason)
{
    if (auto* ob = checkObserver())
        ob->onWakeTrigger(nodeId, reason);
    // Whichever mechanism fires first cancels the other (hybrid
    // wake-up, Section 3.3.2).
    disarmWakeTimer();
    flagMon.armed = false;
    if (!wake)
        return curTick();
    return wake(reason);
}

// ----------------------------------------------------------------------
// Sleep coordination.
// ----------------------------------------------------------------------

void
CacheController::flushDirtyShared(DoneCallback done)
{
    // Collect first: dropLine() changes the array under the walk.
    flushList.clear();
    l2.forEachModified([&](const CacheArray::Line& e) {
        if (fabric.addressMap().isShared(e.addr))
            flushList.push_back(e.addr);
    });

    for (Addr line : flushList) {
        dropLine(line);
        wbBuffer.insert(line);
        sendToDir(makeMsg(MsgType::PutM, line, nodeId, 0));
        hot.flushedLines.inc();
    }

    Tick duration =
        static_cast<Tick>(flushList.size()) * cfg.flushPerLine;
    if (auto* faults = faultHooks()) {
        Tick extra = faults->flushDelay(nodeId, flushList.size());
        if (extra > 0) {
            statsGroup.scalar("faultFlushDelayTicks") +=
                static_cast<double>(extra);
            duration += extra;
        }
    }
    if (TB_TRACED(traceSink(), obs::TraceCategory::Mem)) {
        traceSink()->complete(obs::TraceCategory::Mem, "flush", curTick(),
                        duration, nodeId,
                        {{"lines", flushList.size()}});
    }
    eq.scheduleIn(duration, std::move(done));
}

void
CacheController::setSnoopable(bool snoopable)
{
    if (snoopable && !snoopable_) {
        // Apply buffered invalidations before the CPU resumes.
        for (Addr line : deferred)
            dropLine(line);
        deferred.clear();
    }
    const bool changed = snoopable_ != snoopable;
    snoopable_ = snoopable;
    if (auto* ob = changed ? checkObserver() : nullptr)
        ob->onSnoopableChange(nodeId, snoopable);
}

// ----------------------------------------------------------------------
// Introspection.
// ----------------------------------------------------------------------

LineState
CacheController::l1State(Addr a) const
{
    const CacheArray::Line* e = l1.find(lineAddr(a));
    return e ? e->state() : LineState::Invalid;
}

LineState
CacheController::l2State(Addr a) const
{
    const CacheArray::Line* e = l2.find(lineAddr(a));
    return e ? e->state() : LineState::Invalid;
}

} // namespace mem
} // namespace tb
