/**
 * @file
 * Conservative PDES engine implementation (see pdes.hh for the
 * algorithm and the determinism argument).
 */

#include "sim/pdes.hh"

#include <algorithm>

namespace tb {
namespace pdes {

using detail::Channel;
using detail::ChannelMsg;

// ---------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------

Partition::Partition(Engine& engine, PartitionId id, std::string name,
                     Kind kind, EventQueue* managedQueue)
    : id_(id), name_(std::move(name)), kind_(kind), engine_(engine)
{
    if (kind_ == Kind::Owned) {
        owned_ = std::make_unique<EventQueue>();
        eq_ = owned_.get();
    } else {
        eq_ = managedQueue;
    }
}

std::uint32_t
Partition::takeSeq()
{
    if (nextSeq_ == ~std::uint32_t{0}) {
        panic("pdes: partition ", id_, " '", name_,
              "' exhausted its 2^32 event sequence space");
    }
    return nextSeq_++;
}

Channel&
Partition::channelTo(PartitionId dst) const
{
    for (Channel* c : outs_) {
        if (c->dst == dst)
            return *c;
    }
    panic("pdes: partition ", id_, " '", name_,
          "' has no channel to partition ", dst,
          " (declare it with Engine::connect before run)");
}

void
Partition::push(Channel& c, ChannelMsg&& m)
{
    if (m.when < now() + c.lookahead) {
        panic("pdes: send on channel ", c.src, "->", c.dst,
              " violates conservative lookahead: when=", m.when,
              " < now=", now(), " + lookahead=", c.lookahead);
    }
    engine_.deliver(c, std::move(m));
}

void
Partition::accept(PartitionId src, ChannelMsg&& m)
{
    switch (m.kind) {
    case ChannelMsg::Kind::Payload:
        ++stats_.merged;
        eq_->scheduleKeyed(m.when, m.priority, src, m.seq,
                           std::move(m.fn));
        break;
    case ChannelMsg::Kind::Cancelable: {
        ++stats_.merged;
        const std::uint64_t key = remoteKey(src, m.seq);
        EventHandle h = eq_->scheduleKeyed(
            m.when, m.priority, src, m.seq,
            [this, key, fn = std::move(m.fn)]() mutable {
                remotePending_.erase(key);
                fn();
            });
        remotePending_.emplace(key, h);
        break;
    }
    case ChannelMsg::Kind::Cancel: {
        const std::uint64_t key = remoteKey(src, m.target);
        eq_->scheduleKeyed(m.when, m.priority, src, m.seq,
                           [this, key]() {
                               auto it = remotePending_.find(key);
                               if (it != remotePending_.end()) {
                                   it->second.cancel();
                                   remotePending_.erase(it);
                               }
                           });
        break;
    }
    }
}

void
Partition::send(PartitionId dst, Tick when,
                tb::detail::EventClosure fn, int priority)
{
    if (!fn)
        panic("pdes: send with empty callback");
    Channel& c = channelTo(dst);
    ChannelMsg m;
    m.when = when;
    m.priority = priority;
    m.seq = takeSeq();
    m.kind = ChannelMsg::Kind::Payload;
    m.fn = std::move(fn);
    ++stats_.sent;
    push(c, std::move(m));
}

RemoteHandle
Partition::sendCancelable(PartitionId dst, Tick when,
                          tb::detail::EventClosure fn, int priority)
{
    if (!fn)
        panic("pdes: send with empty callback");
    Channel& c = channelTo(dst);
    ChannelMsg m;
    m.when = when;
    m.priority = priority;
    m.seq = takeSeq();
    m.kind = ChannelMsg::Kind::Cancelable;
    m.fn = std::move(fn);
    RemoteHandle h{dst, m.seq};
    ++stats_.sent;
    push(c, std::move(m));
    return h;
}

void
Partition::cancel(const RemoteHandle& h, Tick when)
{
    if (!h.valid())
        return;
    Channel& c = channelTo(h.dst);
    ChannelMsg m;
    m.when = when;
    m.priority = 0;
    m.seq = takeSeq();
    m.target = h.seq;
    m.kind = ChannelMsg::Kind::Cancel;
    ++stats_.cancelsSent;
    push(c, std::move(m));
}

Tick
Partition::lookaheadTo(PartitionId dst) const
{
    return channelTo(dst).lookahead;
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

Partition&
Engine::addPartition(std::string name)
{
    if (ran_)
        panic("pdes: addPartition after run");
    if (parts_.size() >= kNoPartition)
        panic("pdes: partition id space (2^16 - 1) exhausted");
    const auto id = static_cast<PartitionId>(parts_.size());
    parts_.emplace_back(new Partition(*this, id, std::move(name),
                                      Partition::Kind::Owned, nullptr));
    return *parts_.back();
}

Partition&
Engine::addManagedPartition(std::string name, EventQueue& eq)
{
    if (ran_)
        panic("pdes: addManagedPartition after run");
    if (parts_.size() >= kNoPartition)
        panic("pdes: partition id space (2^16 - 1) exhausted");
    const auto id = static_cast<PartitionId>(parts_.size());
    if (!eq.keyed() || eq.keyedStream() != id) {
        panic("pdes: managed partition '", name, "' needs its queue in "
              "keyed mode with stream ", id,
              " (call EventQueue::setKeyedStream before scheduling "
              "anything into it)");
    }
    parts_.emplace_back(new Partition(*this, id, std::move(name),
                                      Partition::Kind::Managed, &eq));
    return *parts_.back();
}

void
Engine::connect(PartitionId src, PartitionId dst, Tick lookahead)
{
    if (ran_)
        panic("pdes: connect after run");
    if (src >= parts_.size() || dst >= parts_.size())
        panic("pdes: connect with unknown partition id");
    if (src == dst)
        panic("pdes: self-channel ", src, "->", dst, " is meaningless");
    if (lookahead == 0) {
        panic("pdes: channel ", src, "->", dst,
              " needs positive lookahead (conservative "
              "synchronization cannot make progress across a "
              "zero-latency edge)");
    }
    for (const Channel* c : parts_[src]->outs_) {
        if (c->dst == dst)
            panic("pdes: duplicate channel ", src, "->", dst);
    }
    channels_.emplace_back(new Channel);
    Channel& c = *channels_.back();
    c.src = src;
    c.dst = dst;
    c.lookahead = lookahead;
    parts_[src]->outs_.push_back(&c);
}

void
Engine::computeDistances()
{
    // Floyd-Warshall with an infinite diagonal: the result is the
    // shortest path of at least one edge, so D[p][p] is p's shortest
    // cycle. Partition counts are small (tens), so O(n^3) once per
    // run is negligible.
    const std::size_t n = parts_.size();
    dist_.assign(n * n, kTickNever);
    for (const auto& c : channels_) {
        Tick& d = dist_[c->src * n + c->dst];
        d = std::min(d, c->lookahead);
    }
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            const Tick ik = dist_[i * n + k];
            if (ik == kTickNever)
                continue;
            for (std::size_t j = 0; j < n; ++j) {
                Tick& ij = dist_[i * n + j];
                ij = std::min(ij, satAdd(ik, dist_[k * n + j]));
            }
        }
    }
}

void
Engine::deliver(const Channel& c, ChannelMsg&& m)
{
    // A send made during setup only needs its event queued: run()
    // reads every head afresh. Once the executor runs, a reply to
    // this message can reach the firing partition c.src no earlier
    // than when + D[dst][src], so the burst must stop there.
    if (!heads_.empty()) {
        const std::size_t n = parts_.size();
        burstLimit_ = std::min(burstLimit_,
                               satAdd(m.when, dist_[c.dst * n + c.src]));
        heads_[c.dst] = std::min(heads_[c.dst], m.when);
    }
    parts_[c.dst]->accept(c.src, std::move(m));
}

void
Engine::runSequential()
{
    const std::size_t n = parts_.size();
    heads_.resize(n);
    for (std::size_t r = 0; r < n; ++r)
        heads_[r] = parts_[r]->eq_->nextTick();

    for (;;) {
        std::size_t p = 0;
        for (std::size_t r = 1; r < n; ++r)
            if (heads_[r] < heads_[p])
                p = r;
        if (heads_[p] == kTickNever)
            return;

        // Every future event of r lies at or after heads_[r] and
        // reaches p no earlier than heads_[r] + D[r][p]. Each r has
        // heads_[r] >= heads_[p] and D > 0, so the burst fires at
        // least one event.
        burstLimit_ = kTickNever;
        for (std::size_t r = 0; r < n; ++r)
            if (r != p)
                burstLimit_ = std::min(
                    burstLimit_, satAdd(heads_[r], dist_[r * n + p]));

        Partition& part = *parts_[p];
        EventQueue& eq = *part.eq_;
        const std::uint64_t before = eq.eventsExecuted();
        // deliver() may lower burstLimit_ inside any event.
        while (eq.nextTick() < burstLimit_)
            eq.runOne();
        part.stats_.fired += eq.eventsExecuted() - before;
        heads_[p] = eq.nextTick();
    }
}

void
Engine::run()
{
    if (ran_)
        panic("pdes: Engine::run is one-shot");
    ran_ = true;
    if (parts_.empty())
        return;
    computeDistances();
    runSequential();
}

EngineStats
Engine::stats() const
{
    EngineStats s;
    s.partitions = static_cast<unsigned>(parts_.size());
    for (const auto& p : parts_) {
        const PartitionStats& ps = p->stats_;
        s.fired += ps.fired;
        s.scheduled += ps.scheduled;
        s.sent += ps.sent;
        s.merged += ps.merged;
        s.cancelsSent += ps.cancelsSent;
        s.finalTick = std::max(s.finalTick, p->eq_->now());
    }
    return s;
}

} // namespace pdes
} // namespace tb
