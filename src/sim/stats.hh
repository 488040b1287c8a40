/**
 * @file
 * A small named-statistics package in the spirit of gem5's stats.
 *
 * Model objects register Scalar / Distribution stats against a
 * StatGroup. Export goes through the visitor seam: StatGroup::visit()
 * walks every stat in sorted-name order and hands it to a StatVisitor,
 * which is the only consumer interface — text and JSON rendering live
 * in src/obs/stat_writers.hh, not here. Everything is plain
 * value-semantics; no global registry, so independent simulations can
 * coexist in one process (important for the benchmark harness, which
 * runs dozens of configurations back to back).
 */

#ifndef TB_SIM_STATS_HH_
#define TB_SIM_STATS_HH_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace tb {
namespace stats {

/** A named accumulating scalar. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar& operator+=(double v) { value_ += v; return *this; }
    Scalar& operator=(double v) { value_ = v; return *this; }
    void inc(double v = 1.0) { value_ += v; }

    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Running distribution: count/sum/min/max/mean/stddev. */
class Distribution
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        ++n;
        sum += v;
        sumSq += v * v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }

    std::uint64_t count() const { return n; }
    double total() const { return sum; }
    /**
     * Smallest sample, or 0.0 when the distribution is empty. The 0.0
     * convention is fine for text reports but ambiguous with a real
     * zero sample, so machine-readable exporters must check count()
     * and emit null for empty distributions (the JSON writer does).
     */
    double min() const { return n ? lo : 0.0; }
    /** Largest sample, or 0.0 when empty (see min()). */
    double max() const { return n ? hi : 0.0; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }

    /** Population standard deviation. */
    double
    stddev() const
    {
        if (n == 0)
            return 0.0;
        const double m = mean();
        const double var =
            std::max(0.0, sumSq / static_cast<double>(n) - m * m);
        return std::sqrt(var);
    }

    /** Coefficient of variation (stddev / mean), 0 when mean == 0. */
    double
    cv() const
    {
        const double m = mean();
        return m != 0.0 ? stddev() / m : 0.0;
    }

    /**
     * Fold @p o into this distribution as if every one of its samples
     * had been recorded here. Commutative in exact arithmetic, but
     * floating-point sums are order-sensitive — callers that need
     * bit-stable artifacts (the network's per-stream stat shards)
     * must merge in a fixed order.
     */
    void
    merge(const Distribution& o)
    {
        if (o.n == 0)
            return;
        n += o.n;
        sum += o.sum;
        sumSq += o.sumSq;
        lo = std::min(lo, o.lo);
        hi = std::max(hi, o.hi);
    }

    /** Reset to the empty distribution. */
    void
    reset()
    {
        *this = Distribution{};
    }

  private:
    std::uint64_t n = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

/**
 * Consumer interface for stat export. visit() feeds every stat of a
 * group through one of these; renderers (text, JSON) subclass it in
 * src/obs/. Group bracketing is only used by multi-group walks
 * (Machine::visitStats) — single-group visits never call it, hence
 * the no-op defaults.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    /** A named group of stats begins (e.g. "net", "cpu3"). */
    virtual void beginGroup(const std::string& name) { (void)name; }

    /** The current group ends. */
    virtual void endGroup() {}

    virtual void scalar(const std::string& name, double value) = 0;
    virtual void distribution(const std::string& name,
                              const Distribution& d) = 0;
};

/** A flat namespace of named stats belonging to one simulation. */
class StatGroup
{
  public:
    /** Get-or-create a scalar stat. */
    Scalar& scalar(const std::string& name) { return scalars[name]; }

    /** Get-or-create a distribution stat. */
    Distribution&
    distribution(const std::string& name)
    {
        return dists[name];
    }

    /** Read a scalar; 0 if absent. */
    double
    scalarValue(const std::string& name) const
    {
        auto it = scalars.find(name);
        return it == scalars.end() ? 0.0 : it->second.value();
    }

    /** True if a scalar with this name has been created. */
    bool
    hasScalar(const std::string& name) const
    {
        return scalars.count(name) != 0;
    }

    /**
     * Feed every stat to @p v: scalars first, then distributions,
     * each set sorted by name. Does not bracket with begin/endGroup —
     * that is the caller's job when walking multiple groups.
     */
    void visit(StatVisitor& v) const;

    /** Drop all stats. */
    void
    clear()
    {
        scalars.clear();
        dists.clear();
    }

  private:
    std::map<std::string, Scalar> scalars;
    std::map<std::string, Distribution> dists;
};

} // namespace stats
} // namespace tb

#endif // TB_SIM_STATS_HH_
