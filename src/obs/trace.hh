/**
 * @file
 * Structured tracing: typed events from the simulator's layers,
 * exported as Chrome trace_event JSON (viewable in Perfetto or
 * chrome://tracing).
 *
 * Each simulated layer owns one trace category:
 *
 *   sim      event-queue schedule / fire / cancel
 *   mem      coherence transactions (demand misses, RMWs, flushes)
 *   noc      network message hops
 *   thrifty  barrier episodes (arrive, sleep span, release)
 *
 * A TraceSink buffers rendered events in memory — one sink per
 * campaign point, with the point index as the Chrome `pid`, so a whole
 * campaign lands in one trace file with one "process" per point. The
 * per-run buffering is what keeps traces deterministic under
 * `--jobs N`: sinks are written out in point order after the campaign,
 * so the file bytes never depend on thread interleaving.
 *
 * Instrumentation seams hold a `TraceSink*` that is null when tracing
 * is off; `TB_TRACED()` guards every seam, so an untraced run pays one
 * predicted-not-taken branch per seam and builds no event arguments.
 *
 * Event volume is bounded per sink *per category* (sim events alone
 * can reach tens of millions in a figure-scale run): once a category
 * hits its cap, further events in that category are counted but
 * dropped, deterministically, and the exported trace carries a
 * `trace.truncated` marker with the drop count.
 */

#ifndef TB_OBS_TRACE_HH_
#define TB_OBS_TRACE_HH_

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

/**
 * True when @p sink (a TraceSink*) is attached and has @p cat enabled:
 * the runtime guard of every trace seam.
 */
#define TB_TRACED(sink, cat) ((sink) != nullptr && (sink)->enabled(cat))

namespace tb {
namespace obs {

enum class TraceCategory : unsigned {
    Sim = 1u << 0,
    Mem = 1u << 1,
    Noc = 1u << 2,
    Thrifty = 1u << 3,
};

constexpr unsigned kAllTraceCategories = 0xF;

/** Lower-case category name as used in `--trace=FILE:cat,cat`. */
const char* categoryName(TraceCategory cat);

/**
 * Parse a comma-separated category list ("sim,thrifty") into a mask.
 * @return false (leaving @p mask untouched) on any unknown or empty
 *         category name.
 */
bool parseCategories(std::string_view spec, unsigned* mask);

/** One key/value pair in an event's `args` object. */
struct TraceArg
{
    enum class Kind : std::uint8_t { U64, F64, Str };

    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    TraceArg(const char* k, T v)
        : key(k), kind(Kind::U64), u64(static_cast<std::uint64_t>(v))
    {}

    TraceArg(const char* k, double v) : key(k), kind(Kind::F64), f64(v) {}

    TraceArg(const char* k, const char* v)
        : key(k), kind(Kind::Str), str(v)
    {}

    TraceArg(const char* k, const std::string& v)
        : key(k), kind(Kind::Str), str(v)
    {}

    const char* key;
    Kind kind;
    std::uint64_t u64 = 0;
    double f64 = 0.0;
    std::string str;
};

/**
 * Buffers rendered trace events for one simulation run.
 *
 * Not thread-safe *by confinement*: like the EventQueue, one sink
 * belongs to one single-threaded simulation, so it carries no lock —
 * parallel campaigns give every point its own sink, and ObsCapture
 * copies its events into that point's own slot at deposit time. Ticks are picoseconds; Chrome
 * timestamps are microseconds, so events render `ts`/`dur` as
 * tick/1e6 with six decimals (exact at tick resolution).
 */
class TraceSink
{
  public:
    /** Default per-category event cap (see file comment). */
    static constexpr std::uint64_t kDefaultMaxEventsPerCategory =
        1u << 18;

    explicit TraceSink(unsigned categoryMask = kAllTraceCategories,
                       std::uint32_t pid = 0,
                       std::uint64_t maxEventsPerCategory =
                           kDefaultMaxEventsPerCategory)
        : mask(categoryMask), pid_(pid), maxPerCategory(
              maxEventsPerCategory)
    {}

    bool
    enabled(TraceCategory cat) const
    {
        return (mask & static_cast<unsigned>(cat)) != 0;
    }

    /** Instant event ("i" phase) at @p ts. */
    void
    instant(TraceCategory cat, const char* name, Tick ts,
            std::uint32_t tid, std::initializer_list<TraceArg> args = {})
    {
        event('i', cat, name, ts, 0, tid, args);
    }

    /** Complete event ("X" phase): a span [@p start, @p start+@p dur]. */
    void
    complete(TraceCategory cat, const char* name, Tick start, Tick dur,
             std::uint32_t tid,
             std::initializer_list<TraceArg> args = {})
    {
        event('X', cat, name, start, dur, tid, args);
    }

    std::uint32_t pid() const { return pid_; }

    /** Events buffered (post-cap). */
    std::uint64_t eventCount() const { return count; }

    /** Events dropped by the per-category cap. */
    std::uint64_t dropped() const { return droppedCount; }

    /** Rendered events, joined with ",\n" (no enclosing brackets). */
    const std::string& events() const { return buf; }

  private:
    void event(char ph, TraceCategory cat, const char* name, Tick ts,
               Tick dur, std::uint32_t tid,
               std::initializer_list<TraceArg> args);

    unsigned mask;
    std::uint32_t pid_;
    std::uint64_t maxPerCategory;
    std::uint64_t perCategory[4] = {0, 0, 0, 0};
    std::uint64_t count = 0;
    std::uint64_t droppedCount = 0;
    std::string buf;
};

/**
 * EventQueueObserver adapter emitting sim-category events, forwarding
 * every hook to an optional downstream observer (the protocol checker)
 * so tracing and checking compose.
 */
class TraceQueueObserver : public EventQueueObserver
{
  public:
    explicit TraceQueueObserver(TraceSink& s,
                                EventQueueObserver* chain = nullptr)
        : sink(&s), next(chain)
    {}

    void setNext(EventQueueObserver* chain) { next = chain; }

    void
    onSchedule(Tick when, int priority, std::uint64_t seq,
               Tick now) override
    {
        if (TB_TRACED(sink, TraceCategory::Sim)) {
            sink->instant(TraceCategory::Sim, "eq.schedule", now, 0,
                          {{"when", when}, {"seq", seq},
                           {"prio", static_cast<double>(priority)}});
        }
        if (next)
            next->onSchedule(when, priority, seq, now);
    }

    void
    onExecute(Tick when, int priority, std::uint64_t seq) override
    {
        if (TB_TRACED(sink, TraceCategory::Sim)) {
            sink->instant(TraceCategory::Sim, "eq.fire", when, 0,
                          {{"seq", seq}});
        }
        if (next)
            next->onExecute(when, priority, seq);
    }

    void
    onCancel(Tick when, std::uint64_t seq) override
    {
        if (TB_TRACED(sink, TraceCategory::Sim)) {
            sink->instant(TraceCategory::Sim, "eq.cancel", when, 0,
                          {{"seq", seq}});
        }
        if (next)
            next->onCancel(when, seq);
    }

    void
    onDropDead(Tick when, std::uint64_t seq) override
    {
        if (next)
            next->onDropDead(when, seq);
    }

  private:
    TraceSink* sink;
    EventQueueObserver* next;
};

/** One campaign point's worth of events for writeChromeTrace(). */
struct TraceChunk
{
    std::uint32_t pid = 0;
    std::string label;
    std::string events;
    std::uint64_t dropped = 0;
};

/**
 * Assemble chunks into one Chrome trace_event JSON document. Each
 * chunk gets a process_name metadata record so Perfetto shows its
 * label; a truncated chunk gets a `trace.truncated` marker carrying
 * the drop count.
 */
void writeChromeTrace(std::ostream& os,
                      const std::vector<TraceChunk>& chunks);

} // namespace obs
} // namespace tb

#endif // TB_OBS_TRACE_HH_
