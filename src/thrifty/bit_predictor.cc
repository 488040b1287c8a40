#include "thrifty/bit_predictor.hh"

#include "sim/logging.hh"

namespace tb {
namespace thrifty {

namespace {

std::uint64_t
threadBit(ThreadId tid)
{
    if (tid >= 64)
        fatal("predictor disable bits support up to 64 threads");
    return std::uint64_t{1} << tid;
}

} // namespace

// ----------------------------------------------------------------------
// LastValuePredictor
// ----------------------------------------------------------------------

std::optional<Tick>
LastValuePredictor::predict(BarrierPc pc, ThreadId tid) const
{
    auto it = table.find(pc);
    if (it == table.end() || !it->second.hasValue)
        return std::nullopt;
    if (it->second.disabledThreads & threadBit(tid))
        return std::nullopt;
    return it->second.lastBit;
}

void
LastValuePredictor::update(BarrierPc pc, Tick actual_bit)
{
    Entry& e = table[pc];
    e.lastBit = actual_bit;
    e.hasValue = true;
}

std::optional<Tick>
LastValuePredictor::stored(BarrierPc pc) const
{
    auto it = table.find(pc);
    if (it == table.end() || !it->second.hasValue)
        return std::nullopt;
    return it->second.lastBit;
}

void
LastValuePredictor::disable(BarrierPc pc, ThreadId tid)
{
    table[pc].disabledThreads |= threadBit(tid);
}

bool
LastValuePredictor::disabled(BarrierPc pc, ThreadId tid) const
{
    auto it = table.find(pc);
    return it != table.end() &&
           (it->second.disabledThreads & threadBit(tid)) != 0;
}

// ----------------------------------------------------------------------
// MovingAveragePredictor
// ----------------------------------------------------------------------

MovingAveragePredictor::MovingAveragePredictor(double a)
    : alpha(a)
{
    if (alpha <= 0.0 || alpha > 1.0)
        fatal("moving-average alpha must be in (0,1], got ", alpha);
}

std::optional<Tick>
MovingAveragePredictor::predict(BarrierPc pc, ThreadId tid) const
{
    auto it = table.find(pc);
    if (it == table.end() || !it->second.hasValue)
        return std::nullopt;
    if (it->second.disabledThreads & threadBit(tid))
        return std::nullopt;
    return static_cast<Tick>(it->second.avg);
}

void
MovingAveragePredictor::update(BarrierPc pc, Tick actual_bit)
{
    Entry& e = table[pc];
    if (!e.hasValue) {
        e.avg = static_cast<double>(actual_bit);
        e.hasValue = true;
    } else {
        e.avg = alpha * static_cast<double>(actual_bit) +
                (1.0 - alpha) * e.avg;
    }
}

std::optional<Tick>
MovingAveragePredictor::stored(BarrierPc pc) const
{
    auto it = table.find(pc);
    if (it == table.end() || !it->second.hasValue)
        return std::nullopt;
    return static_cast<Tick>(it->second.avg);
}

void
MovingAveragePredictor::disable(BarrierPc pc, ThreadId tid)
{
    table[pc].disabledThreads |= threadBit(tid);
}

bool
MovingAveragePredictor::disabled(BarrierPc pc, ThreadId tid) const
{
    auto it = table.find(pc);
    return it != table.end() &&
           (it->second.disabledThreads & threadBit(tid)) != 0;
}

std::unique_ptr<BitPredictor>
makePredictor(const std::string& kind)
{
    if (kind == "last-value")
        return std::make_unique<LastValuePredictor>();
    if (kind == "moving-average")
        return std::make_unique<MovingAveragePredictor>();
    fatal("unknown predictor kind '", kind, "'");
}

} // namespace thrifty
} // namespace tb
