/**
 * @file
 * Conservative PDES engine implementation (see pdes.hh for the
 * algorithm and the determinism argument).
 */

#include "sim/pdes.hh"

#include <sched.h>

#include <algorithm>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tb {
namespace pdes {

using detail::Channel;
using detail::ChannelMsg;

// ---------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------

Partition::Partition(PartitionId id, std::string name, Kind kind,
                     EventQueue* externalQueue)
    : id_(id), name_(std::move(name)), kind_(kind)
{
    if (kind_ == Kind::Owned) {
        owned_ = std::make_unique<EventQueue>();
        eq_ = owned_.get();
    } else {
        eq_ = externalQueue;
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
    if (direct_) {
        direct_->deliver(c, std::move(m));
        return;
    }
    c.minSent[parity_] = std::min(c.minSent[parity_], m.when);
    c.mailbox[parity_].push_back(std::move(m));
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
Partition::merge(unsigned parity)
{
    // Merge order cannot reorder execution: each entry carries its
    // origin (partition, seq) key.
    for (Channel* c : ins_) {
        for (ChannelMsg& m : c->mailbox[parity])
            accept(c->src, std::move(m));
        c->mailbox[parity].clear();
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
    parts_.emplace_back(
        new Partition(id, std::move(name), Partition::Kind::Owned,
                      nullptr));
    return *parts_.back();
}

Partition&
Engine::addExternalPartition(std::string name, EventQueue& eq)
{
    if (ran_)
        panic("pdes: addExternalPartition after run");
    if (parts_.size() >= kNoPartition)
        panic("pdes: partition id space (2^16 - 1) exhausted");
    const auto id = static_cast<PartitionId>(parts_.size());
    parts_.emplace_back(
        new Partition(id, std::move(name), Partition::Kind::External,
                      &eq));
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
    parts_.emplace_back(
        new Partition(id, std::move(name), Partition::Kind::Managed,
                      &eq));
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
    if (parts_[src]->kind_ == Partition::Kind::External ||
        parts_[dst]->kind_ == Partition::Kind::External) {
        panic("pdes: external partition cannot take channels (its "
              "queue keeps plain insertion-order scheduling, which "
              "has no deterministic cross-partition tie-break)");
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
    parts_[dst]->ins_.push_back(&c);
}

unsigned
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

namespace detail {

namespace {

/**
 * Polls of the phase word before a waiter blocks. A poll with a pause
 * costs tens of nanoseconds, so a waiter spins for tens of
 * microseconds: longer than a typical round on a 64-node machine, far
 * shorter than a scheduler time slice.
 */
constexpr unsigned kSpinPolls = 2048;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * With more workers than usable CPUs a spinning waiter holds the CPU
 * a worker still in its round needs (a 64-node Volrend run at 8
 * workers on 4 cores took 14 s spinning, under 2 s blocking at
 * once), so oversubscribed runs block immediately.
 */
unsigned
spinPollsFor(unsigned parties)
{
    return parties > usableCpus() ? 0 : kSpinPolls;
}

} // namespace

RoundBarrier::RoundBarrier(unsigned parties)
    : parties_(parties), spinPolls_(spinPollsFor(parties))
{
}

void
RoundBarrier::arriveAndWait()
{
    // The phase cannot advance before this thread arrives, so this
    // load reads the current phase. Arrivals form one release
    // sequence on arrived_; the last arriver acquires it, so its
    // release store of the new phase publishes every worker's round.
    const std::uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        parties_) {
        arrived_.store(0, std::memory_order_relaxed);
        phase_.store(phase + 1, std::memory_order_release);
        phase_.notify_all();
        return;
    }
    for (unsigned i = 0; i < spinPolls_; ++i) {
        if (phase_.load(std::memory_order_acquire) != phase)
            return;
        cpuRelax();
    }
    while (phase_.load(std::memory_order_acquire) == phase)
        phase_.wait(phase, std::memory_order_acquire);
}

} // namespace detail

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

std::uint64_t
Engine::worker(const std::vector<Partition*>& mine,
               detail::RoundBarrier& barrier)
{
    const std::size_t n = parts_.size();
    std::vector<Tick> minima(n);
    for (std::uint64_t round = 1;; ++round) {
        const unsigned prev = (round - 1) & 1;
        const unsigned cur = round & 1;

        // Every worker derives the same minima from the previous
        // round's publications: next local event, or the earliest
        // message still in flight to the partition.
        bool live = false;
        for (std::size_t r = 0; r < n; ++r)
            minima[r] = published_[prev][r];
        for (const auto& c : channels_)
            minima[c->dst] = std::min(minima[c->dst], c->minSent[prev]);
        for (std::size_t r = 0; r < n; ++r)
            live |= minima[r] != kTickNever;
        if (!live)
            return round - 1;

        for (Partition* p : mine) {
            Tick bound = kTickNever;
            for (std::size_t r = 0; r < n; ++r)
                bound = std::min(bound,
                                 satAdd(minima[r], dist_[r * n + p->id_]));

            p->parity_ = cur;
            for (Channel* c : p->outs_)
                c->minSent[cur] = kTickNever;
            p->merge(prev);

            // Fire everything strictly below the bound: a message
            // timestamped exactly at it may yet arrive.
            if (p->eq_->nextTick() < bound) {
                const std::uint64_t before = p->eq_->eventsExecuted();
                p->eq_->run(bound == kTickNever ? kTickNever
                                                : bound - 1);
                p->stats_.fired += p->eq_->eventsExecuted() - before;
            } else if (p->eq_->nextTick() != kTickNever) {
                ++p->stats_.stallRounds;
            }
            published_[cur][p->id_] = p->eq_->nextTick();
        }
        barrier.arriveAndWait();
    }
}

void
Engine::deliver(const Channel& c, ChannelMsg&& m)
{
    // A reply to this message can reach the firing partition c.src no
    // earlier than when + D[dst][src], so the burst must stop there.
    const std::size_t n = parts_.size();
    burstLimit_ =
        std::min(burstLimit_, satAdd(m.when, dist_[c.dst * n + c.src]));
    heads_[c.dst] = std::min(heads_[c.dst], m.when);
    parts_[c.dst]->accept(c.src, std::move(m));
}

void
Engine::runSequential()
{
    const std::size_t n = parts_.size();
    // Sends made during setup sit in the parity-0 mailboxes; from here
    // on every send is delivered at once, so nothing is in flight.
    for (const auto& p : parts_) {
        p->merge(0);
        p->direct_ = this;
    }
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

    threadsUsed_ = std::max(
        1u,
        std::min(cfg_.threads, static_cast<unsigned>(parts_.size())));

    computeDistances();
    if (threadsUsed_ == 1) {
        runSequential();
        return;
    }

    published_[0].resize(parts_.size());
    published_[1].assign(parts_.size(), kTickNever);
    for (const auto& p : parts_)
        published_[0][p->id_] = p->eq_->nextTick();

    // Static partition ownership: partition i belongs to worker
    // i % threads. Ownership never moves, so partition state needs no
    // locking, and channels are ordered by the round barrier.
    std::vector<std::vector<Partition*>> assign(threadsUsed_);
    for (std::size_t i = 0; i < parts_.size(); ++i)
        assign[i % threadsUsed_].push_back(parts_[i].get());

    // The calling thread is worker 0. Every worker sees the same
    // minima, so all of them stop after the same round.
    detail::RoundBarrier barrier(threadsUsed_);
    std::vector<std::thread> pool;
    pool.reserve(threadsUsed_ - 1);
    for (unsigned t = 1; t < threadsUsed_; ++t)
        pool.emplace_back(
            [this, t, &assign, &barrier] { worker(assign[t], barrier); });
    rounds_ = worker(assign[0], barrier);
    for (auto& th : pool)
        th.join();
}

EngineStats
Engine::stats() const
{
    EngineStats s;
    s.threads = threadsUsed_;
    s.partitions = static_cast<unsigned>(parts_.size());
    s.rounds = rounds_;
    for (const auto& p : parts_) {
        const PartitionStats& ps = p->stats_;
        s.fired += ps.fired;
        s.scheduled += ps.scheduled;
        s.sent += ps.sent;
        s.merged += ps.merged;
        s.cancelsSent += ps.cancelsSent;
        s.stallRounds += ps.stallRounds;
        s.finalTick = std::max(s.finalTick, p->eq_->now());
    }
    return s;
}

} // namespace pdes
} // namespace tb
