/**
 * @file
 * Barrier-interval-time (BIT) predictors (Section 3.2 of the paper).
 *
 * The thrifty barrier estimates a thread's stall time indirectly: it
 * predicts the thread-independent *barrier interval time* (release of
 * instance b-1 to release of instance b) and subtracts the thread's
 * own compute time. The paper finds PC-indexed *last-value* prediction
 * accurate for most applications; alternatives are provided for the
 * ablation benches.
 *
 * Each predictor entry carries one *disable bit per thread* — the
 * overprediction-threshold cutoff of Section 3.3.3 sets it to stop a
 * thread from sleeping at a barrier that keeps burning it.
 */

#ifndef TB_THRIFTY_BIT_PREDICTOR_HH_
#define TB_THRIFTY_BIT_PREDICTOR_HH_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/types.hh"

namespace tb {
namespace thrifty {

/** Static-barrier identifier — the PC of the barrier call site. */
using BarrierPc = std::uint64_t;

/** Interface of a PC-indexed BIT predictor. */
class BitPredictor
{
  public:
    virtual ~BitPredictor() = default;

    /**
     * Pre-insert barrier @p pc's table entry (idempotent; keeps any
     * recorded state). Called at barrier construction, so the event
     * path only looks entries up and updates them in place and never
     * inserts one.
     */
    virtual void prepare(BarrierPc pc) = 0;

    /**
     * Predict the interval time of the upcoming instance of barrier
     * @p pc for thread @p tid. Empty if there is no history yet or
     * prediction is disabled for this (pc, tid) — the thread then
     * spins conventionally (this is also how the first instance of
     * every barrier warms up).
     */
    virtual std::optional<Tick> predict(BarrierPc pc,
                                        ThreadId tid) const = 0;

    /** Record the measured interval time of the completed instance. */
    virtual void update(BarrierPc pc, Tick actual_bit) = 0;

    /** Stored (pre-update) value for @p pc, if any; used by the
     *  underprediction filter. */
    virtual std::optional<Tick> stored(BarrierPc pc) const = 0;

    /** Set the per-thread disable bit (overprediction cutoff). */
    virtual void disable(BarrierPc pc, ThreadId tid) = 0;

    /** Read the per-thread disable bit. */
    virtual bool disabled(BarrierPc pc, ThreadId tid) const = 0;

    /** Predictor family name (for reports). */
    virtual std::string name() const = 0;
};

/** The paper's predictor: last value, indexed by barrier PC. */
class LastValuePredictor : public BitPredictor
{
  public:
    void prepare(BarrierPc pc) override;
    std::optional<Tick> predict(BarrierPc pc,
                                ThreadId tid) const override;
    void update(BarrierPc pc, Tick actual_bit) override;
    std::optional<Tick> stored(BarrierPc pc) const override;
    void disable(BarrierPc pc, ThreadId tid) override;
    bool disabled(BarrierPc pc, ThreadId tid) const override;
    std::string name() const override { return "last-value"; }

  private:
    struct Entry
    {
        Tick lastBit = 0;
        bool hasValue = false;
        std::uint64_t disabledThreads = 0;
    };
    std::unordered_map<BarrierPc, Entry> table;
};

/**
 * Exponentially-weighted moving average predictor (ablation A2):
 * smoother than last-value, slower to track swings.
 */
class MovingAveragePredictor : public BitPredictor
{
  public:
    /** @param alpha weight of the newest sample, in (0, 1]. */
    explicit MovingAveragePredictor(double alpha = 0.5);

    void prepare(BarrierPc pc) override;
    std::optional<Tick> predict(BarrierPc pc,
                                ThreadId tid) const override;
    void update(BarrierPc pc, Tick actual_bit) override;
    std::optional<Tick> stored(BarrierPc pc) const override;
    void disable(BarrierPc pc, ThreadId tid) override;
    bool disabled(BarrierPc pc, ThreadId tid) const override;
    std::string name() const override { return "moving-average"; }

  private:
    struct Entry
    {
        double avg = 0.0;
        bool hasValue = false;
        std::uint64_t disabledThreads = 0;
    };
    double alpha;
    std::unordered_map<BarrierPc, Entry> table;
};

/** Construct a predictor by family name ("last-value" etc.). */
std::unique_ptr<BitPredictor> makePredictor(const std::string& kind);

} // namespace thrifty
} // namespace tb

#endif // TB_THRIFTY_BIT_PREDICTOR_HH_
