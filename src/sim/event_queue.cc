#include "sim/event_queue.hh"

#include <bit>
#include <utility>

namespace tb {

EventQueue::EventQueue(unsigned streams)
{
    if (streams == 0 || streams > 0x10000u)
        panic("event stream count ", streams, " out of range [1, 65536]");
    orderBits = kSeqBits - static_cast<unsigned>(std::bit_width(streams - 1));
    nextOrder.assign(streams, 0);
    streamTick.assign(streams, 0);
}

void
EventQueue::setStream(unsigned stream)
{
    if (stream >= streams())
        panic("event stream ", stream, " out of range [0, ", streams(),
              ")");
    cur = stream;
}

// ----------------------------------------------------------------------
// EventHandle backends.
// ----------------------------------------------------------------------

bool
EventQueue::handleScheduled(std::uint32_t idx, std::uint64_t gen) const
{
    const Slot& s = slot(idx);
    return s.gen == gen && s.state == Slot::State::Pending;
}

void
EventQueue::handleCancel(std::uint32_t idx, std::uint64_t gen)
{
    Slot& s = slot(idx);
    if (s.gen != gen || s.state != Slot::State::Pending)
        return;
    s.state = Slot::State::Canceled;
    // Release the closure now: a canceled event never runs, and a
    // callback that captures the owner of its handle would otherwise
    // keep it alive until the dead slot is reaped.
    s.callback.reset();
    --livePending;
    ++deadPending;
    if (obs)
        obs->onCancel(s.when, s.seq);
}

Tick
EventQueue::handleWhen(std::uint32_t idx, std::uint64_t gen) const
{
    const Slot& s = slot(idx);
    if (s.gen != gen || s.state != Slot::State::Pending)
        return kTickNever;
    return s.when;
}

// ----------------------------------------------------------------------
// Slot pool.
// ----------------------------------------------------------------------

void
EventQueue::growPool()
{
    const std::size_t base = slabs.size() * kSlabSize;
    if (base + kSlabSize > kNoIndex)
        panic("event pool exhausted (2^32 slots)");
    slabs.push_back(std::make_unique<Slot[]>(kSlabSize));
    Slot* arr = slabs.back().get();
    if (!slab0)
        slab0 = arr;
    // Thread the new slots onto the free list lowest-index-first.
    for (std::uint32_t i = kSlabSize; i-- > 0;) {
        arr[i].nextFree = freeHead;
        freeHead = static_cast<std::uint32_t>(base) + i;
    }
}

void
EventQueue::recycleSlot(std::uint32_t idx, Slot& s)
{
    ++s.gen; // invalidate outstanding handles
    s.state = Slot::State::Free;
    s.callback.reset();
    s.nextFree = freeHead;
    freeHead = idx;
}

// ----------------------------------------------------------------------
// Scheduling and execution.
// ----------------------------------------------------------------------

void
EventQueue::rejectSchedule(Tick when, int priority) const
{
    if (when < curTick) {
        panic("scheduling event in the past: when=", when,
              " now=", curTick);
    }
    if (static_cast<std::int16_t>(priority) != priority)
        panic("event priority out of range: ", priority);
    panic("event stream ", cur, " exhausted its order space (2^",
          orderBits, " events)");
}

void
EventQueue::dropDead()
{
    while (deadPending > 0 && !heap.empty()) {
        const std::uint32_t idx = heap.front().index;
        Slot& s = slot(idx);
        if (s.state != Slot::State::Canceled)
            break;
        if (obs)
            obs->onDropDead(s.when, s.seq);
        recycleSlot(idx, s);
        --deadPending;
        heapPop();
    }
}

void
EventQueue::executeHead()
{
    const HeapEntry e = heapPop();
    Slot& s = slot(e.index);
    if (obs)
        obs->onExecute(e.when, s.priority, s.seq);
    curTick = e.when;
    cur = s.stream;
    streamTick[cur] = e.when;
    --livePending;
    ++executed;
    // Retire the slot *before* invoking: the bumped generation keeps
    // stale handles inert while the callback runs, and the slot only
    // joins the free list afterwards, so a self-rescheduling callback
    // can never be handed its own still-executing slot. The callback
    // is invoked in place — no relocation out of the slot.
    ++s.gen;
    s.state = Slot::State::Free;
    s.callback.consume();
    s.nextFree = freeHead;
    freeHead = e.index;
}

bool
EventQueue::runOne()
{
    dropDead();
    if (heap.empty())
        return false;
    executeHead();
    return true;
}

Tick
EventQueue::run(Tick until)
{
    for (;;) {
        dropDead();
        if (heap.empty() || heap.front().when > until)
            break;
        executeHead();
    }
    return curTick;
}

// ----------------------------------------------------------------------
// Binary min-heap over packed (tick, priority:key) keys. Hole-based
// sift (move, don't swap) with 24-byte POD entries — no indirection in
// the comparisons, which is where the old shared_ptr heap burned its
// time.
// ----------------------------------------------------------------------

EventQueue::HeapEntry
EventQueue::heapPop()
{
    HeapEntry* h = heap.data();
    const HeapEntry top = h[0];
    const HeapEntry last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n > 0) {
        // Bottom-up pop: pull the min-child path up to a leaf with one
        // comparison per level, then sift the old tail entry back up.
        // The tail is almost always a recent (large-key) event that
        // belongs near the bottom, so the up-phase terminates at once
        // and this does about half the comparisons of a top-down sift.
        // The smaller child is picked arithmetically (no branch to
        // mispredict); a lone last child is taken after the loop.
        std::size_t i = 0;
        std::size_t child = 1;
        while (child + 1 < n) {
            child += h[child + 1].before(h[child]);
            h[i] = h[child];
            i = child;
            child = 2 * i + 1;
        }
        if (child < n) {
            h[i] = h[child];
            i = child;
        }
        while (i > 0) {
            const std::size_t parent = (i - 1) >> 1;
            if (!last.before(h[parent]))
                break;
            h[i] = h[parent];
            i = parent;
        }
        h[i] = last;
    }
    return top;
}

} // namespace tb
