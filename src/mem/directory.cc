#include "mem/directory.hh"

#include <bit>
#include <cstdio>
#include <utility>

#include "sim/logging.hh"

namespace tb {
namespace mem {

Directory::Directory(EventQueue& queue, NodeId node, unsigned num_nodes,
                     Fabric& fabric_, Backend& backend_, Dram& dram_,
                     std::string name, bool three_hop_forwarding,
                     const Hooks* hooks)
    : SimObject(queue, std::move(name)),
      nodeId(node),
      numNodes(num_nodes),
      threeHop(three_hop_forwarding),
      fabric(fabric_),
      backend(backend_),
      dram(dram_),
      hooks_(hooks)
{
    if (num_nodes == 0 || num_nodes > kMaxNodes)
        fatal("directory supports 1..", kMaxNodes, " nodes, got ",
              num_nodes);
}

namespace {

/** Bucket of @p line in a table of 2^@p bits buckets. */
std::size_t
bucketOf(Addr line, unsigned bits)
{
    const std::uint64_t h = (line / kLineBytes) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> (64 - bits));
}

} // namespace

std::size_t
Directory::probe(Addr line) const
{
    const std::size_t mask = buckets.size() - 1;
    const auto bits = static_cast<unsigned>(std::countr_zero(buckets.size()));
    std::size_t i = bucketOf(line, bits);
    while (buckets[i].index != kNone && buckets[i].line != line)
        i = (i + 1) & mask;
    return i;
}

const Directory::LineDir*
Directory::findLine(Addr line) const
{
    if (buckets.empty())
        return nullptr;
    const Bucket& b = buckets[probe(line)];
    return b.index == kNone ? nullptr : &lineDirs[b.index];
}

Directory::LineDir&
Directory::lineDir(Addr line)
{
    if (2 * (lineDirs.size() + 1) > buckets.size())
        growBuckets();
    Bucket& b = buckets[probe(line)];
    if (b.index != kNone)
        return lineDirs[b.index];
    b.line = line;
    b.index = static_cast<std::uint32_t>(lineDirs.size());
    return lineDirs.emplace_back();
}

void
Directory::growBuckets()
{
    std::vector<Bucket> old = std::move(buckets);
    buckets.assign(old.empty() ? 64 : 2 * old.size(), Bucket{});
    for (const Bucket& b : old)
        if (b.index != kNone)
            buckets[probe(b.line)] = b;
}

void
Directory::enqueue(LineDir& ld, const Msg& msg)
{
    std::uint32_t w = freeWaiter;
    if (w != kNone) {
        freeWaiter = waitPool[w].next;
        waitPool[w].msg = msg;
        waitPool[w].next = kNone;
    } else {
        w = static_cast<std::uint32_t>(waitPool.size());
        waitPool.push_back(Waiter{msg, kNone});
    }
    if (ld.waitTail == kNone)
        ld.waitHead = w;
    else
        waitPool[ld.waitTail].next = w;
    ld.waitTail = w;
}

Msg
Directory::dequeue(LineDir& ld)
{
    const std::uint32_t w = ld.waitHead;
    Waiter& head = waitPool[w];
    Msg msg = std::move(head.msg);
    ld.waitHead = head.next;
    if (ld.waitHead == kNone)
        ld.waitTail = kNone;
    head.msg = Msg{};
    head.next = freeWaiter;
    freeWaiter = w;
    return msg;
}

DirState
Directory::lineState(Addr line) const
{
    const LineDir* ld = findLine(line);
    return ld ? ld->state : DirState::Uncached;
}

std::uint64_t
Directory::lineSharers(Addr line) const
{
    const LineDir* ld = findLine(line);
    return ld ? ld->sharers : 0;
}

NodeId
Directory::lineOwner(Addr line) const
{
    const LineDir* ld = findLine(line);
    if (!ld || ld->state != DirState::Exclusive)
        return kInvalidNode;
    return ld->owner;
}

bool
Directory::lineBusy(Addr line) const
{
    const LineDir* ld = findLine(line);
    return ld && ld->busy;
}

void
Directory::send(NodeId dst, Msg msg)
{
    fabric.toController(nodeId, dst, std::move(msg));
}

void
Directory::receive(const Msg& msg)
{
    LineDir& ld = lineDir(msg.line);
    if (protocolTraced(msg.line)) {
        std::size_t queued = 0;
        for (std::uint32_t w = ld.waitHead; w != kNone;
             w = waitPool[w].next)
            ++queued;
        fprintf(stderr,
                "[%12lu] dir%u  <- %-13s from %u (state=%d sharers=%lx "
                "owner=%d busy=%d queue=%zu)\n",
                curTick(), nodeId, msgTypeName(msg.type), msg.src,
                static_cast<int>(ld.state), ld.sharers,
                static_cast<int>(ld.owner), static_cast<int>(ld.busy),
                queued);
    }
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::Upgrade:
      case MsgType::PutM:
      case MsgType::AtomicRmw:
        hot.requests.inc();
        enqueue(ld, msg);
        tryStart(msg.line);
        break;

      case MsgType::OwnerData:
        handleOwnerData(msg, ld);
        break;
      case MsgType::OwnerStale:
        handleOwnerStale(msg, ld);
        break;
      case MsgType::OwnerHandled:
        handleOwnerHandled(msg, ld);
        break;
      case MsgType::InvAck:
        handleInvAck(msg.line, ld);
        break;

      default:
        panic("directory received unexpected message ",
              msgTypeName(msg.type));
    }
}

void
Directory::tryStart(Addr line)
{
    // Iterative so back-to-back zero-latency completions (e.g.\ stale
    // PutMs) do not recurse.
    for (;;) {
        LineDir& ld = lineDir(line);
        if (ld.busy || ld.waitHead == kNone)
            return;
        ld.busy = true;
        ld.cur = dequeue(ld);
        ld.pendingAcks = 0;
        ld.waitingOwner = false;
        ld.waitingMem = false;
        ld.ownerKeptCopy = false;
        ld.grantUpgrade = false;
        start(line, ld);
        // If start() completed synchronously, busy was cleared and the
        // loop dispatches the next queued request; otherwise we are
        // waiting on a response and return here.
        if (ld.busy)
            return;
    }
}

void
Directory::start(Addr line, LineDir& ld)
{
    switch (ld.cur.type) {
      case MsgType::GetS:
        startGetS(line, ld);
        break;
      case MsgType::GetX:
      case MsgType::Upgrade:
      case MsgType::AtomicRmw:
        startWrite(line, ld);
        break;
      case MsgType::PutM:
        startPutM(line, ld);
        break;
      default:
        panic("directory cannot start transaction ",
              msgTypeName(ld.cur.type));
    }
}

void
Directory::readMem(Addr line, LineDir& ld)
{
    ld.waitingMem = true;
    dram.read([this, line]() {
        LineDir& l = lineDir(line);
        l.waitingMem = false;
        if (l.cur.type == MsgType::GetS) {
            // Memory read on the GetS path only happens when the
            // requester ends up with the only copy (Uncached, stale
            // owner) or joins an existing sharer set.
            const NodeId r = l.cur.src;
            if (l.state == DirState::Shared) {
                l.sharers |= bit(r);
                send(r, makeMsg(MsgType::DataShared, line, nodeId, 0));
            } else {
                l.state = DirState::Exclusive;
                l.owner = r;
                l.sharers = 0;
                send(r,
                     makeMsg(MsgType::DataExclusive, line, nodeId, 0));
            }
            finish(line, l);
        } else {
            maybeFinishWrite(line, l);
        }
    });
}

void
Directory::startGetS(Addr line, LineDir& ld)
{
    const NodeId r = ld.cur.src;
    switch (ld.state) {
      case DirState::Exclusive:
        if (ld.owner != r) {
            ld.waitingOwner = true;
            Msg fwd = makeMsg(MsgType::FwdGetS, line, nodeId, 0);
            if (threeHop)
                fwd.requester = r;
            send(ld.owner, std::move(fwd));
        } else {
            // Owner silently dropped its clean-exclusive copy and is
            // re-requesting; refresh from memory, stay Exclusive(r).
            readMem(line, ld);
        }
        break;
      case DirState::Shared:
      case DirState::Uncached:
        readMem(line, ld);
        break;
    }
}

void
Directory::startWrite(Addr line, LineDir& ld)
{
    const NodeId r = ld.cur.src;
    bool need_mem = false;

    switch (ld.state) {
      case DirState::Exclusive:
        if (ld.owner != r) {
            ld.waitingOwner = true;
            Msg fwd = makeMsg(MsgType::FwdGetX, line, nodeId, 0);
            // AtomicRmw data must come home (the fetch-op executes
            // here), so it always stays hub-and-spoke.
            if (threeHop && ld.cur.type != MsgType::AtomicRmw) {
                fwd.requester = r;
                // The owner applies the store when it serves the
                // intervention (3-hop serialization point).
                fwd.storeAddr = ld.cur.storeAddr;
                fwd.storeValue = ld.cur.storeValue;
                fwd.hasStore = ld.cur.hasStore;
            }
            send(ld.owner, std::move(fwd));
        } else if (ld.cur.type == MsgType::AtomicRmw) {
            // Atomics bypass the requester's cache, so the requester
            // may well still hold the line (e.g.\ a lock retry after
            // spinning on the lock word). Intervene on its own
            // controller so no stale copy survives the fetch-op.
            ld.waitingOwner = true;
            send(r, makeMsg(MsgType::FwdGetX, line, nodeId, 0));
        } else {
            // GetX/Upgrade from the registered owner can only mean it
            // silently dropped a clean-exclusive copy (a hit would
            // not have reached the directory).
            need_mem = true;
        }
        break;
      case DirState::Shared: {
        std::uint64_t to_inv = ld.sharers & ~bit(r);
        // AtomicRmw lines must end uncached everywhere, including at
        // the requester.
        if (ld.cur.type == MsgType::AtomicRmw)
            to_inv = ld.sharers;
        const bool requester_has_copy =
            (ld.sharers & bit(r)) != 0 &&
            ld.cur.type != MsgType::AtomicRmw;
        for (NodeId n = 0; n < numNodes; ++n) {
            if (to_inv & bit(n)) {
                ++ld.pendingAcks;
                send(n, makeMsg(MsgType::Inv, line, nodeId, 0));
            }
        }
        ld.grantUpgrade = requester_has_copy;
        need_mem = !requester_has_copy &&
                   ld.cur.type != MsgType::AtomicRmw;
        break;
      }
      case DirState::Uncached:
        need_mem = ld.cur.type != MsgType::AtomicRmw;
        break;
    }

    // AtomicRmw always pays one memory access at execution time (the
    // fetch-op runs at the home memory); chain it in maybeFinishWrite.
    if (need_mem)
        readMem(line, ld);
    else
        maybeFinishWrite(line, ld);
}

void
Directory::maybeFinishWrite(Addr line, LineDir& ld)
{
    if (ld.waitingOwner || ld.waitingMem || ld.pendingAcks > 0)
        return;

    const NodeId r = ld.cur.src;
    if (ld.cur.type == MsgType::AtomicRmw) {
        // All copies are gone; execute the fetch-op at home memory.
        dram.read([this, line]() {
            LineDir& l = lineDir(line);
            const NodeId req = l.cur.src;
            std::uint64_t old = 0;
            if (l.cur.rmwOp)
                old = l.cur.rmwOp(curTick());
            if (auto* ob = checkObs())
                ob->onRmwSerialized(req, l.cur.storeAddr, old,
                                     backend.read(l.cur.storeAddr));
            l.state = DirState::Uncached;
            l.sharers = 0;
            l.owner = kInvalidNode;
            send(req, makeMsg(MsgType::RmwResult, line, nodeId, old));
            hot.rmws.inc();
            finish(line, l);
        });
        return;
    }

    ld.state = DirState::Exclusive;
    ld.owner = r;
    ld.sharers = 0;
    // Apply the store at the serialization point so requests queued
    // behind this transaction observe the new value.
    if (ld.cur.hasStore) {
        backend.write(ld.cur.storeAddr, ld.cur.storeValue);
        if (auto* ob = checkObs())
            ob->onStoreSerialized(r, ld.cur.storeAddr,
                                   ld.cur.storeValue);
    }
    send(r, makeMsg(ld.grantUpgrade ? MsgType::UpgradeAck
                                    : MsgType::DataModified,
                    line, nodeId, 0));
    finish(line, ld);
}

void
Directory::startPutM(Addr line, LineDir& ld)
{
    const NodeId s = ld.cur.src;
    if (ld.state == DirState::Exclusive && ld.owner == s) {
        dram.write();
        ld.state = DirState::Uncached;
        ld.owner = kInvalidNode;
        hot.writebacks.inc();
    } else {
        // Stale writeback: an intervention already transferred the
        // line; discard the data.
        hot.staleWritebacks.inc();
    }
    send(s, makeMsg(MsgType::WbAck, line, nodeId, 0));
    finish(line, ld);
}

void
Directory::handleOwnerData(const Msg& msg, LineDir& ld)
{
    const Addr line = msg.line;
    if (!ld.busy || !ld.waitingOwner)
        panic("unexpected OwnerData for line ", line);
    ld.waitingOwner = false;
    // Whether the old owner retained a Shared copy travels in the
    // rmwOld field of the OwnerData message (1 = kept).
    ld.ownerKeptCopy = msg.rmwOld != 0;
    dram.write(); // the dirty line is written back through home

    const NodeId r = ld.cur.src;
    if (ld.cur.type == MsgType::GetS) {
        const NodeId old_owner = ld.owner;
        ld.state = DirState::Shared;
        ld.sharers = bit(r);
        if (ld.ownerKeptCopy)
            ld.sharers |= bit(old_owner);
        ld.owner = kInvalidNode;
        send(r, makeMsg(MsgType::DataShared, line, nodeId, 0));
        finish(line, ld);
    } else {
        // Write-class transaction: old owner's copy is gone.
        maybeFinishWrite(line, ld);
    }
}

void
Directory::handleOwnerHandled(const Msg& msg, LineDir& ld)
{
    const Addr line = msg.line;
    if (!ld.busy || !ld.waitingOwner)
        panic("unexpected OwnerHandled for line ", line);
    ld.waitingOwner = false;
    hot.threeHopInterventions.inc();

    // The owner already sent the data straight to the requester; the
    // home only updates state (plus the sharing writeback for dirty
    // lines, as in DASH).
    if (msg.ownerWasDirty)
        dram.write();

    const NodeId r = ld.cur.src;
    if (ld.cur.type == MsgType::GetS) {
        const NodeId old_owner = ld.owner;
        ld.state = DirState::Shared;
        ld.sharers = bit(r);
        if (msg.ownerKept)
            ld.sharers |= bit(old_owner);
        ld.owner = kInvalidNode;
    } else {
        // The store value was applied by the owner when it served the
        // forwarded request (the transaction's serialization point in
        // 3-hop mode), so anything queued here already observes it —
        // and the home never risks clobbering a *newer* local store
        // the requester may have performed since.
        ld.state = DirState::Exclusive;
        ld.owner = r;
        ld.sharers = 0;
    }
    finish(line, ld);
}

void
Directory::handleOwnerStale(const Msg& msg, LineDir& ld)
{
    const Addr line = msg.line;
    if (!ld.busy || !ld.waitingOwner)
        panic("unexpected OwnerStale for line ", line);
    ld.waitingOwner = false;
    // Memory is current. The old owner may have kept a downgraded
    // Shared copy (FwdGetS to a clean-exclusive line); the kept flag
    // travels in rmwOld.
    const bool kept = msg.rmwOld != 0;
    if (ld.cur.type == MsgType::GetS) {
        if (kept) {
            // readMem's Shared branch adds the requester.
            ld.state = DirState::Shared;
            ld.sharers = bit(ld.owner);
        } else {
            ld.state = DirState::Uncached; // readMem grants E(r)
            ld.sharers = 0;
        }
        ld.owner = kInvalidNode;
        readMem(line, ld);
    } else if (ld.cur.type == MsgType::AtomicRmw) {
        ld.state = DirState::Uncached;
        ld.owner = kInvalidNode;
        ld.sharers = 0;
        maybeFinishWrite(line, ld);
    } else {
        // Write-class: the owner relinquished its copy (FwdGetX never
        // leaves one behind); fetch the data from memory.
        readMem(line, ld);
    }
}

void
Directory::handleInvAck(Addr line, LineDir& ld)
{
    if (!ld.busy || ld.pendingAcks == 0)
        panic("unexpected InvAck for line ", line);
    --ld.pendingAcks;
    maybeFinishWrite(line, ld);
}

void
Directory::finish(Addr line, LineDir& ld)
{
    ld.busy = false;
    ld.cur = Msg{};
    if (auto* ob = checkObs())
        ob->onDirStable(line, ld.state, ld.sharers, ld.owner);
    tryStart(line);
}

} // namespace mem
} // namespace tb
