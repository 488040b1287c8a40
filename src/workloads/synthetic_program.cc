#include "workloads/synthetic_program.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace tb {
namespace workloads {

namespace {

/** SplitMix-style combiner for deterministic sub-stream seeds. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    std::uint64_t z = h;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

SyntheticProgram::SyntheticProgram(EventQueue& queue,
                                   mem::MemorySystem& memory_,
                                   std::vector<cpu::ThreadContext*> threads,
                                   const AppProfile& profile,
                                   BarrierProvider& barriers,
                                   std::uint64_t seed_)
    : eq(queue),
      memory(memory_),
      tcs(std::move(threads)),
      app(profile),
      provider(barriers),
      seed(seed_)
{
    if (tcs.empty())
        fatal("synthetic program needs at least one thread");
    if (app.totalInstances() == 0)
        fatal("application profile '", app.name, "' has no barriers");

    // The Step pointers reference this object's own profile copy, so
    // they remain valid for the program's lifetime.
    for (const auto& spec : app.prologue)
        sequence.push_back(Step{&spec, 0});
    for (unsigned it = 0; it < app.iterations; ++it) {
        for (const auto& spec : app.loop)
            sequence.push_back(Step{&spec, it});
    }

    sharedBase = memory.addressMap().allocShared(app.sharedBytes);
    privateBase.reserve(tcs.size());
    for (std::size_t t = 0; t < tcs.size(); ++t) {
        privateBase.push_back(memory.addressMap().allocPrivate(
            static_cast<NodeId>(t), app.privateBytes));
    }

    cursors.resize(tcs.size());
    finishTick_.assign(tcs.size(), 0);

    // Materialize every barrier up front: barrier construction
    // allocates shared pages, which must not happen after the address
    // map is sealed.
    for (const Step& s : sequence)
        provider.barrierFor(s.spec->pc);
}

Random
SyntheticProgram::streamFor(std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) const
{
    std::uint64_t h = mix(seed, a);
    h = mix(h, b);
    h = mix(h, c);
    return Random(h);
}

double
SyntheticProgram::instanceFactor(const PhaseSpec& spec,
                                 std::uint64_t instance) const
{
    Random rng = streamFor(spec.pc, instance, 0x1157);
    double f = rng.lognormalMeanCv(1.0, spec.instanceJitterCv);
    if (spec.swingProbability > 0.0 &&
        rng.chance(spec.swingProbability)) {
        f *= rng.chance(0.5) ? spec.swingFactor
                             : 1.0 / spec.swingFactor;
    }
    return f;
}

Tick
SyntheticProgram::drawBusy(ThreadId tid, const Step& step) const
{
    const PhaseSpec& spec = *step.spec;
    // Persistent partition skew: one draw per (barrier, thread).
    Random base_rng = streamFor(spec.pc, 0x5eed, tid);
    const double base = base_rng.lognormalMeanCv(1.0, spec.imbalanceCv);
    // Instance-to-instance wobble per thread.
    Random rng = streamFor(spec.pc, step.instance, 0xbeef + tid);
    const double wobble =
        rng.lognormalMeanCv(1.0, spec.threadWobbleCv);
    double busy = static_cast<double>(spec.meanCompute) *
                  instanceFactor(spec, step.instance) * base * wobble;

    // OS interference (Section 3.4.2): one random thread of an
    // affected instance is "preempted" and arrives inordinately late.
    if (spec.spikeProbability > 0.0) {
        Random spike_rng = streamFor(spec.pc, step.instance, 0x5b1ce);
        if (spike_rng.chance(spec.spikeProbability) &&
            spike_rng.uniformInt(tcs.size()) == tid) {
            busy *= spec.spikeFactor;
        }
    }
    return static_cast<Tick>(std::max(busy, 1.0));
}

void
SyntheticProgram::start()
{
    for (std::size_t t = 0; t < tcs.size(); ++t) {
        // Thread t runs on node t: its first events originate from,
        // and run as, that node's stream.
        eq.setStream(memory.fabric().streamOf(static_cast<NodeId>(t)));
        runStep(static_cast<ThreadId>(t), 0);
    }
}

void
SyntheticProgram::runStep(ThreadId tid, std::size_t step_idx)
{
    Cursor& c = cursors[tid];
    c.step = step_idx;
    if (step_idx >= sequence.size()) {
        threadFinished(tid);
        return;
    }
    const Step& step = sequence[step_idx];
    const PhaseSpec& spec = *step.spec;
    const Tick busy = drawBusy(tid, step);
    const unsigned accesses = spec.memAccesses;
    const Tick chunk = busy / (accesses + 1);

    c.chunk = chunk == 0 ? 1 : chunk;
    c.accessesLeft = accesses;
    c.phase = streamFor(spec.pc, step.instance, 0xacce55 + tid);
    runChunk(tid);
}

void
SyntheticProgram::runChunk(ThreadId tid)
{
    tcs[tid]->compute(cursors[tid].chunk,
                      [this, tid]() { chunkDone(tid); });
}

void
SyntheticProgram::chunkDone(ThreadId tid)
{
    const Cursor& c = cursors[tid];
    if (c.accessesLeft > 0) {
        issueAccess(tid);
        return;
    }
    thrifty::Barrier& b = provider.barrierFor(sequence[c.step].spec->pc);
    b.arrive(*tcs[tid],
             [this, tid]() { runStep(tid, cursors[tid].step + 1); });
}

void
SyntheticProgram::accessDone(ThreadId tid)
{
    --cursors[tid].accessesLeft;
    runChunk(tid);
}

void
SyntheticProgram::issueAccess(ThreadId tid)
{
    cpu::ThreadContext& tc = *tcs[tid];
    const PhaseSpec& spec = *sequence[cursors[tid].step].spec;
    Random rng = cursors[tid].phase;
    const bool shared = rng.chance(spec.sharedFraction);
    const bool write = rng.chance(spec.writeFraction);
    Addr base;
    std::size_t span;
    if (shared) {
        base = sharedBase;
        span = app.sharedBytes;
    } else {
        base = privateBase[tid];
        span = app.privateBytes;
    }
    const Addr a = base + (rng.uniformInt(span / 8) * 8);

    if (write) {
        tc.store(a, rng.next(), [this, tid]() { accessDone(tid); });
    } else {
        tc.load(a, [this, tid](std::uint64_t) { accessDone(tid); });
    }
}

void
SyntheticProgram::threadFinished(ThreadId tid)
{
    // Per-thread bookkeeping only: the tick of this thread's last
    // event is its finish time.
    tcs[tid]->markDone();
    finishTick_[tid] = tcs[tid]->curTick();
}

bool
SyntheticProgram::finished() const
{
    for (const cpu::ThreadContext* tc : tcs)
        if (!tc->isDone())
            return false;
    return true;
}

Tick
SyntheticProgram::finishTick() const
{
    Tick last = 0;
    for (Tick t : finishTick_)
        last = std::max(last, t);
    return last;
}

} // namespace workloads
} // namespace tb
