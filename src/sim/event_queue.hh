/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are totally ordered by (tick, priority, stream, per-stream
 * order), so a given seed always produces bit-identical simulations.
 * A queue is built with a number of *streams*; every event runs as
 * one of them. An event scheduled with schedule() runs as the stream
 * of the event that schedules it, and scheduleOn() names another
 * stream (a NoC hop into a node of another stream). Either way its
 * tie-break key is the *origin* stream (the one running, or the one
 * set with setStream() during setup) and that stream's next order
 * number. With one stream this is plain insertion order. A machine
 * runs each block of nodes as its own stream (harness/machine.hh), so
 * its event order is the one a queue per block would execute, drained
 * together: the order the paper's artifacts pin.
 *
 * Cancelation is lazy: an EventHandle marks its event dead and the
 * queue drops it when it reaches the head. The thrifty barrier's
 * hybrid wake-up relies on this to let the external and internal
 * wake-up mechanisms cancel each other (Section 3.3.2 of the paper).
 *
 * Storage design (docs/PERFORMANCE.md): events live in slab-allocated
 * pool slots reused through a free list, and callbacks whose captures
 * fit kInlineClosureBytes are stored inline in the slot — the schedule/
 * fire hot path performs no per-event heap allocation. Handles address
 * events by (slot index, generation); a recycled slot bumps its
 * generation so stale handles turn into harmless no-ops.
 */

#ifndef TB_SIM_EVENT_QUEUE_HH_
#define TB_SIM_EVENT_QUEUE_HH_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tb {

class EventQueue;

/**
 * Passive observer of event-queue activity. Attached by the protocol
 * checker to enforce scheduling discipline (no past-tick schedules,
 * strictly ordered execution, balanced schedule/execute/cancel/drop
 * accounting). Null by default; the queue's hot path only pays a
 * predicted-not-taken branch when no observer is attached.
 */
class EventQueueObserver
{
  public:
    virtual ~EventQueueObserver() = default;

    /** An event was scheduled for @p when while the queue sat at
     *  @p now. @p seq is its tie-break key: origin stream and
     *  per-stream order, packed so that keys compare as the queue
     *  orders ties (the insertion sequence on a one-stream queue). */
    virtual void
    onSchedule(Tick when, int priority, std::uint64_t seq, Tick now)
    {
        (void)when; (void)priority; (void)seq; (void)now;
    }

    /** The event (@p when, @p priority, @p seq) is about to execute.
     *  Keys ascend in execution order, except that an event scheduled
     *  at the current tick below the running event's key runs next. */
    virtual void
    onExecute(Tick when, int priority, std::uint64_t seq)
    {
        (void)when; (void)priority; (void)seq;
    }

    /** A still-pending event was canceled. */
    virtual void
    onCancel(Tick when, std::uint64_t seq)
    {
        (void)when; (void)seq;
    }

    /**
     * A previously canceled event reached the head of the queue and
     * was dropped (its slot recycled). Every onCancel is eventually
     * matched by exactly one onDropDead once the queue drains, which
     * is what makes the cancel accounting auditable.
     */
    virtual void
    onDropDead(Tick when, std::uint64_t seq)
    {
        (void)when; (void)seq;
    }
};

namespace detail {

/**
 * Type-erased move-only callback with inline small-closure storage.
 * Callables up to kInlineBytes (and max_align_t alignment) live inside
 * the object; larger ones fall back to a single heap allocation.
 */
class EventClosure
{
  public:
    static constexpr std::size_t kInlineBytes = 48;

    EventClosure() = default;

    /** Wrap @p f; an empty std::function yields an empty closure. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventClosure> &&
                  std::is_invocable_v<std::decay_t<F>&>>>
    EventClosure(F&& f) // NOLINT: implicit by design
    {
        emplace(std::forward<F>(f));
    }

    EventClosure(EventClosure&& other) noexcept { moveFrom(other); }

    EventClosure&
    operator=(EventClosure&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventClosure(const EventClosure&) = delete;
    EventClosure& operator=(const EventClosure&) = delete;

    ~EventClosure() { reset(); }

    /** True if a callable is held. */
    explicit operator bool() const { return ops != nullptr; }

    /** Invoke the held callable (must not be empty). */
    void operator()() { ops->invoke(buf); }

    /**
     * Construct @p f in place. The closure must be empty — this is the
     * schedule hot path writing straight into a recycled pool slot, so
     * no destroy-and-relocate round trip happens. Another EventClosure
     * is taken over as is (never wrapped in a second layer), and an
     * empty std::function leaves this closure empty.
     */
    template <typename F>
    void
    emplace(F&& f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, EventClosure>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "an EventClosure is move-only");
            moveFrom(f);
        } else if constexpr (std::is_same_v<Fn, std::function<void()>>) {
            if (f)
                emplaceCallable(std::forward<F>(f));
        } else {
            emplaceCallable(std::forward<F>(f));
        }
    }

    /**
     * Invoke then destroy the held callable in one indirect call,
     * leaving the closure empty (must not be empty on entry). The
     * closure is marked empty *before* the callable runs, so the slot
     * stays consistent if the callback re-enters the queue.
     */
    void
    consume()
    {
        const Ops* o = ops;
        ops = nullptr;
        o->consume(buf);
    }

    /** Destroy the held callable (no-op if empty). */
    void
    reset()
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    /** True if @p Fn would be stored inline (no heap allocation). */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        void (*invoke)(void* self);
        void (*destroy)(void* self);
        /** Move-construct at @p dst from @p src, then destroy src. */
        void (*relocate)(void* dst, void* src);
        /** Invoke, then destroy (the fire path, fused). */
        void (*consume)(void* self);
    };

    template <typename Fn>
    static Fn* at(void* p) { return std::launder(reinterpret_cast<Fn*>(p)); }

    template <typename F>
    void
    emplaceCallable(F&& f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void*>(buf)) Fn(std::forward<F>(f));
            ops = &kInlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn**>(static_cast<void*>(buf)) =
                new Fn(std::forward<F>(f));
            ops = &kHeapOps<Fn>;
        }
    }

    template <typename Fn>
    static constexpr Ops kInlineOps = {
        [](void* p) { (*at<Fn>(p))(); },
        [](void* p) { at<Fn>(p)->~Fn(); },
        [](void* dst, void* src) {
            Fn* s = at<Fn>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void* p) {
            Fn* f = at<Fn>(p);
            (*f)();
            f->~Fn();
        },
    };

    template <typename Fn>
    static constexpr Ops kHeapOps = {
        [](void* p) { (**reinterpret_cast<Fn**>(p))(); },
        [](void* p) { delete *reinterpret_cast<Fn**>(p); },
        [](void* dst, void* src) {
            *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
        },
        [](void* p) {
            Fn* f = *reinterpret_cast<Fn**>(p);
            (*f)();
            delete f;
        },
    };

    void
    moveFrom(EventClosure& other)
    {
        if (other.ops) {
            other.ops->relocate(buf, other.buf);
            ops = other.ops;
            other.ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    const Ops* ops = nullptr;
};

} // namespace detail

/**
 * A cancelable reference to a scheduled event.
 *
 * Default-constructed handles refer to nothing; all operations on them
 * are harmless no-ops. Handles are trivially copyable (slot index +
 * generation); once the event fires or a cancelation is reaped, the
 * handle goes stale and every operation on it is again a no-op.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the event is still pending (not fired, not canceled). */
    bool scheduled() const;

    /** Cancel the event if still pending. Safe to call repeatedly. */
    void cancel();

    /**
     * Tick the event is scheduled for; kTickNever if the handle is
     * empty or the event already fired or was canceled.
     */
    Tick when() const;

  private:
    friend class EventQueue;

    EventHandle(EventQueue* q, std::uint32_t idx, std::uint64_t g)
        : queue(q), index(idx), gen(g)
    {}

    /**
     * Owning queue. A handle must not be used after its queue has been
     * destroyed (the queue owns the simulation and outlives all model
     * objects in practice).
     */
    EventQueue* queue = nullptr;
    std::uint32_t index = 0;
    std::uint64_t gen = 0;
};

/**
 * The central event queue driving one simulation.
 *
 * Not thread-safe: the entire simulated machine runs in one host
 * thread, which is what makes determinism cheap. Independent queues
 * (one per Machine) may run concurrently on different host threads —
 * the parallel campaign runner relies on this.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Largest closure stored without a heap allocation. */
    static constexpr std::size_t kInlineClosureBytes =
        detail::EventClosure::kInlineBytes;

    /**
     * @param streams number of streams events run as, in [1, 65536]
     *        (see file comment). Setup code schedules as stream 0
     *        until setStream() names another.
     */
    explicit EventQueue(unsigned streams = 1);

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule @p f to run at absolute tick @p when, as the running
     * event's stream.
     *
     * @param when      Absolute tick; must be >= now().
     * @param f         Callable executed when the event fires. Captures
     *                  up to kInlineClosureBytes are stored inline.
     * @param priority  Ties at the same tick run in ascending priority,
     *                  then ascending (origin stream, order).
     * @return a handle that can cancel the event.
     */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_v<std::decay_t<F>&>>>
    EventHandle
    schedule(Tick when, F&& f, int priority = 0)
    {
        return scheduleAs(cur, when, std::forward<F>(f), priority);
    }

    /** Schedule @p f to run @p delta ticks from now. */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_v<std::decay_t<F>&>>>
    EventHandle
    scheduleIn(Tick delta, F&& f, int priority = 0)
    {
        return schedule(curTick + delta, std::forward<F>(f), priority);
    }

    /**
     * schedule() at priority 0, but the event runs as @p stream
     * (< streams()). Its key still carries the origin stream, so where
     * it sorts among ties does not depend on which stream it runs as.
     */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_invocable_v<std::decay_t<F>&>>>
    EventHandle
    scheduleOn(unsigned stream, Tick when, F&& f)
    {
        if (stream >= streams())
            panic("event stream ", stream, " out of range [0, ",
                  streams(), ")");
        crossed += stream != cur;
        return scheduleAs(stream, when, std::forward<F>(f), 0);
    }

    /** Number of streams the queue was built with. */
    unsigned
    streams() const
    {
        return static_cast<unsigned>(streamTick.size());
    }

    /** The stream that schedule() runs new events as: the running
     *  event's, or the one set with setStream(). */
    unsigned stream() const { return cur; }

    /**
     * Make @p stream (< streams()) the origin of the events scheduled
     * from here on. For setup code only: inside an event, the running
     * event's stream is the origin.
     */
    void setStream(unsigned stream);

    /** Tick of the last event that ran as @p stream (0 if none). */
    Tick streamNow(unsigned stream) const { return streamTick.at(stream); }

    /** Events scheduled onto another stream than the origin's. */
    std::uint64_t crossStreamEvents() const { return crossed; }

    /**
     * Execute the single next pending event.
     * @return true if an event ran, false if the queue was empty.
     */
    bool runOne();

    /**
     * Run until the queue drains or simulated time would exceed
     * @p until (events at exactly @p until still run).
     * @return the tick of the last executed event, or now() if none ran.
     */
    Tick run(Tick until = kTickNever);

    /** True when no live events are pending. */
    bool empty() const { return livePending == 0; }

    /** Number of live (non-canceled) pending events. */
    std::size_t pending() const { return livePending; }

    /** Total events executed since construction. */
    std::uint64_t eventsExecuted() const { return executed; }

    /** Attach (or with nullptr detach) a scheduling observer. */
    void setObserver(EventQueueObserver* observer) { obs = observer; }

    /** The attached observer, or null. */
    EventQueueObserver* observer() const { return obs; }

    /**
     * Pool slots currently allocated (free + in use). Grows in slab
     * granularity and never shrinks; tests assert that cancel-heavy
     * churn reuses slots instead of growing this.
     */
    std::size_t poolCapacity() const { return slabs.size() * kSlabSize; }

  private:
    friend class EventHandle;

    static constexpr std::uint32_t kSlabBits = 8;
    static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;
    static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};

    /** One pool slot: key fields, closure, free-list link. */
    struct Slot
    {
        enum class State : std::uint8_t { Free, Pending, Canceled };

        Tick when = 0;
        /** Tie-break key: origin stream over per-stream order. */
        std::uint64_t seq = 0;
        /** Bumped every recycle; stale handles mismatch and no-op. */
        std::uint64_t gen = 0;
        detail::EventClosure callback;
        std::int32_t priority = 0;
        std::uint32_t nextFree = kNoIndex;
        /** Stream the event runs as. */
        std::uint16_t stream = 0;
        State state = State::Free;
    };

    /**
     * Heap element: full ordering key + slot index, no indirection.
     * Priority (16-bit, bias-mapped so the unsigned compare preserves
     * signed order) and the 48-bit tie-break key share one word, so
     * the strict (tick, priority, key) order costs two word compares
     * in the sift loops. prepareSlot() enforces both ranges.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t prioSeq;
        std::uint32_t index;

        /** Strict (tick, priority, key) order; keys are unique. */
        bool
        before(const HeapEntry& o) const
        {
            if (when != o.when)
                return when < o.when;
            return prioSeq < o.prioSeq;
        }
    };

    /** Bits of the packed word holding the tie-break key. */
    static constexpr unsigned kSeqBits = 48;

    static std::uint64_t
    packKey(int priority, std::uint64_t seq)
    {
        const auto biased = static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(priority) ^ 0x8000u);
        return (std::uint64_t{biased} << kSeqBits) | seq;
    }

    Slot&
    slot(std::uint32_t idx)
    {
        // Simulations rarely exceed one slab of outstanding events, so
        // the first slab is reachable through a cached pointer without
        // touching the slab table.
        if (idx < kSlabSize)
            return slab0[idx];
        return slabs[idx >> kSlabBits][idx & (kSlabSize - 1)];
    }

    const Slot&
    slot(std::uint32_t idx) const
    {
        if (idx < kSlabSize)
            return slab0[idx];
        return slabs[idx >> kSlabBits][idx & (kSlabSize - 1)];
    }

    /**
     * Schedule prologue shared by every instantiation: observer hook,
     * past-tick / priority-range / order-range checks, slot allocation
     * and key-field fill. The key is the origin stream (the running
     * one) over its next order number, which takes the low orderBits
     * bits. Returns the slot index; the caller emplaces the closure
     * and pushes the heap entry.
     */
    std::uint32_t
    prepareSlot(Tick when, int priority, unsigned runs_as)
    {
        std::uint64_t& order = nextOrder[cur];
        const std::uint64_t seq =
            (std::uint64_t{cur} << orderBits) | order;
        if (obs)
            obs->onSchedule(when, priority, seq, curTick);
        if (when < curTick || static_cast<std::int16_t>(priority) !=
                                  priority ||
            (order >> orderBits) != 0) {
            rejectSchedule(when, priority);
        }
        ++order;
        const std::uint32_t idx = allocSlot();
        Slot& s = slot(idx);
        s.when = when;
        s.priority = priority;
        s.seq = seq;
        s.stream = static_cast<std::uint16_t>(runs_as);
        s.state = Slot::State::Pending;
        return idx;
    }

    /** Schedule @p f at @p when to run as @p runs_as. */
    template <typename F>
    EventHandle
    scheduleAs(unsigned runs_as, Tick when, F&& f, int priority)
    {
        rejectEmpty(f);
        // prepareSlot validates and fills the key fields; the closure is
        // then constructed straight into the slot (no relocation), and
        // only a fully-formed event enters the heap.
        const std::uint32_t idx = prepareSlot(when, priority, runs_as);
        Slot& s = slot(idx);
        s.callback.emplace(std::forward<F>(f));
        heapPush(HeapEntry{when, packKey(priority, s.seq), idx});
        ++livePending;
        return EventHandle(this, idx, s.gen);
    }

    /**
     * Panic on an empty std::function or EventClosure: it would be
     * stored as a live event and fail only when it fires, far from
     * the schedule call that caused it.
     */
    template <typename F>
    static void
    rejectEmpty(const F& f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, Callback> ||
                      std::is_same_v<Fn, detail::EventClosure>) {
            if (!f)
                panic("scheduling event with empty callback");
        }
    }

    /** Cold path of prepareSlot: diagnose and panic. */
    [[noreturn]] void rejectSchedule(Tick when, int priority) const;

    /** Pop a free slot, growing the pool by one slab if exhausted. */
    std::uint32_t
    allocSlot()
    {
        if (freeHead == kNoIndex)
            growPool();
        const std::uint32_t idx = freeHead;
        freeHead = slot(idx).nextFree;
        return idx;
    }

    /** Cold path of allocSlot: add one slab to the free list. */
    void growPool();

    /** Return @p idx to the free list and invalidate its handles. */
    void recycleSlot(std::uint32_t idx, Slot& s);

    /** Reap canceled events from the head of the heap. */
    void dropDead();

    /** Pop + run the heap head (caller ensures a live head exists). */
    void executeHead();

    void
    heapPush(HeapEntry e)
    {
        heap.push_back(e);
        HeapEntry* h = heap.data();
        std::size_t i = heap.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) >> 1;
            if (!e.before(h[parent]))
                break;
            h[i] = h[parent];
            i = parent;
        }
        h[i] = e;
    }

    HeapEntry heapPop();

    // EventHandle backends.
    bool handleScheduled(std::uint32_t idx, std::uint64_t gen) const;
    void handleCancel(std::uint32_t idx, std::uint64_t gen);
    Tick handleWhen(std::uint32_t idx, std::uint64_t gen) const;

    std::vector<std::unique_ptr<Slot[]>> slabs;
    /** Cached slabs[0] pointer (slot() fast path); null until the
     *  first slab exists. */
    Slot* slab0 = nullptr;
    std::uint32_t freeHead = kNoIndex;
    /** Canceled events still sitting in the heap. When zero, the
     *  reaping pass is a single counter test (no slot loads). */
    std::size_t deadPending = 0;
    std::vector<HeapEntry> heap;
    Tick curTick = 0;
    std::uint64_t executed = 0;
    std::size_t livePending = 0;
    EventQueueObserver* obs = nullptr;
    /** The origin stream of the next schedule (see stream()). */
    unsigned cur = 0;
    /** Bits of a key below the stream: 48 minus the stream id width. */
    unsigned orderBits = kSeqBits;
    /** Next order number of each stream. */
    std::vector<std::uint64_t> nextOrder;
    /** Tick of each stream's last event (streamNow()). */
    std::vector<Tick> streamTick;
    std::uint64_t crossed = 0;
};

inline bool
EventHandle::scheduled() const
{
    return queue && queue->handleScheduled(index, gen);
}

inline void
EventHandle::cancel()
{
    if (queue)
        queue->handleCancel(index, gen);
}

inline Tick
EventHandle::when() const
{
    return queue ? queue->handleWhen(index, gen) : kTickNever;
}

} // namespace tb

#endif // TB_SIM_EVENT_QUEUE_HH_
