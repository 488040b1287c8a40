/**
 * @file
 * Rule-engine tests for tools/tblint (docs/CHECKING.md, "Static
 * analysis"): for every rule ID, at least one fixture that fires and
 * one that is silenced by a well-formed suppression. The repo-wide
 * zero-findings guarantee is a separate ctest (tblint_repo_clean)
 * that runs the real binary over src/, tools/ and bench/.
 *
 * Fixtures live in raw strings; tblint never scans tests/, so the
 * deliberately-violating snippets here cannot trip the repo gate.
 */

#include "tblint/rules.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using tblint::Finding;
using tblint::lintContent;

/** Count findings for @p rule. */
std::size_t
countRule(const std::vector<Finding>& fs, const std::string& rule)
{
    return static_cast<std::size_t>(
        std::count_if(fs.begin(), fs.end(), [&](const Finding& f) {
            return f.rule == rule;
        }));
}

// ----------------------------------------------------------------------
// TBL000 — suppression hygiene
// ----------------------------------------------------------------------

TEST(TblintSuppressionHygiene, UnknownRuleIdFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        // tblint-allow(TBL999): no such rule
        int x;
    )tb");
    EXPECT_EQ(countRule(fs, "TBL000"), 1u);
}

TEST(TblintSuppressionHygiene, MissingReasonFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        // tblint-allow(TBL002)
        int x;
    )tb");
    EXPECT_EQ(countRule(fs, "TBL000"), 1u);
}

TEST(TblintSuppressionHygiene, EmptyRuleListFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        // tblint-allow(): forgot the id
        int x;
    )tb");
    EXPECT_EQ(countRule(fs, "TBL000"), 1u);
}

TEST(TblintSuppressionHygiene, WellFormedAllowIsClean)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        // tblint-allow(TBL002): genuine wall-clock deadline
        auto t0 = std::chrono::steady_clock::now();
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintSuppressionHygiene, Tbl000ItselfCannotBeSuppressed)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        // tblint-allow(TBL000): trying to silence the police
        // tblint-allow(TBL999): no such rule
        int x;
    )tb");
    // The TBL999 directive still draws a TBL000 despite the allow.
    EXPECT_EQ(countRule(fs, "TBL000"), 1u);
}

TEST(TblintSuppressionHygiene, MalformedAllowSuppressesNothing)
{
    // A reason-less allow is hygiene-flagged AND does not silence the
    // wall-clock finding it sits next to.
    const auto fs = lintContent("src/a.cc", R"tb(
        // tblint-allow(TBL002)
        auto t0 = std::chrono::steady_clock::now();
    )tb");
    EXPECT_EQ(countRule(fs, "TBL000"), 1u);
    EXPECT_EQ(countRule(fs, "TBL002"), 1u);
}

// ----------------------------------------------------------------------
// TBL001 — unordered-container iteration
// ----------------------------------------------------------------------

TEST(TblintUnorderedIteration, RangeForOverUnorderedMapFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        std::unordered_map<int, int> m;
        void f() {
            for (const auto& kv : m) { consume(kv); }
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL001"), 1u);
}

TEST(TblintUnorderedIteration, AllowSilences)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        std::unordered_map<int, int> m;
        void f() {
            // tblint-allow(TBL001): order-insensitive summation
            for (const auto& kv : m) { total += kv.second; }
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintUnorderedIteration, DeclInCompanionHeaderIsSeen)
{
    // The member lives in the .hh, the loop in the .cc — the pairing
    // convention makes the declaration visible to the matcher.
    const auto fs = lintContent(
        "src/a.cc",
        R"tb(
        void Owner::dump() {
            for (const auto& kv : lines) { emitLine(kv); }
        }
        )tb",
        R"tb(
        class Owner {
            std::unordered_map<int, Line> lines;
        };
        )tb");
    EXPECT_EQ(countRule(fs, "TBL001"), 1u);
}

TEST(TblintUnorderedIteration, AliasedUnorderedTypeFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        using LineMap = std::unordered_map<int, Line>;
        LineMap lines;
        void f() {
            for (auto& kv : lines) { touch(kv); }
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL001"), 1u);
}

TEST(TblintUnorderedIteration, OrderedMapIsClean)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        std::map<int, int> m;
        void f() {
            for (const auto& kv : m) { consume(kv); }
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// TBL002 — wall clock / ambient entropy
// ----------------------------------------------------------------------

TEST(TblintWallClock, SteadyClockFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        auto t0 = std::chrono::steady_clock::now();
    )tb");
    EXPECT_EQ(countRule(fs, "TBL002"), 1u);
}

TEST(TblintWallClock, LibcTimeCallFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        long stamp = time(nullptr);
    )tb");
    EXPECT_EQ(countRule(fs, "TBL002"), 1u);
}

TEST(TblintWallClock, RandomDeviceFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        std::random_device rd;
    )tb");
    EXPECT_EQ(countRule(fs, "TBL002"), 1u);
}

TEST(TblintWallClock, SameLineAllowSilences)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        auto t0 = std::chrono::steady_clock::now(); // tblint-allow(TBL002): bench timing
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintWallClock, RandomHeaderIsWhitelisted)
{
    const auto fs = lintContent("src/sim/random.hh", R"tb(
        std::random_device rd;
        long stamp = time(nullptr);
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintWallClock, MethodNamedTimeIsClean)
{
    // Declarations (`Tick time(Bucket)`) and member calls
    // (`model.time(b)`) are not libc time().
    const auto fs = lintContent("src/a.hh", R"tb(
        class EnergyModel {
            Tick time(Bucket b) const;
        };
        Tick probe(EnergyModel& m, Bucket b) { return m.time(b); }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintWallClock, SleepFamilyFires)
{
    // Blocking sleeps are host-time waits; a genuine one carries an
    // inline allow.
    const auto fs = lintContent("src/harness/a.cc", R"tb(
        void waitAround() {
            sleep(1);
            usleep(100);
            nanosleep(&ts, nullptr);
            std::this_thread::sleep_for(std::chrono::seconds(1));
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL002"), 4u);
}

TEST(TblintWallClock, MethodNamedSleepIsClean)
{
    // The power model's sleep-state transitions (`cpu.sleep(state)`)
    // are simulation behaviour, not libc sleep().
    const auto fs = lintContent("src/a.cc", R"tb(
        void park(Cpu& cpu) { cpu.sleep(SleepState::DeepNap); }
    )tb");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// TBL003 — pointer identity in output
// ----------------------------------------------------------------------

TEST(TblintPointerIdentity, PercentPFires)
{
    // tblint-allow(TBL003): fixture deliberately carries the specifier
    const auto fs = lintContent("src/a.cc", R"tb(
        std::printf("node at %p\n", static_cast<void*>(n));
    )tb");
    EXPECT_EQ(countRule(fs, "TBL003"), 1u);
}

TEST(TblintPointerIdentity, HashOfPointerFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        std::unordered_set<Node*, std::hash<Node*>> seen;
    )tb");
    EXPECT_EQ(countRule(fs, "TBL003"), 1u);
}

TEST(TblintPointerIdentity, PointerToIntegerCastFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        auto key = reinterpret_cast<std::uintptr_t>(node);
    )tb");
    EXPECT_EQ(countRule(fs, "TBL003"), 1u);
}

TEST(TblintPointerIdentity, AllowSilences)
{
    // tblint-allow(TBL003): fixture deliberately carries the specifier
    const auto fs = lintContent("src/a.cc", R"tb(
        // tblint-allow(TBL003): debug-only dump, never an artifact
        std::printf("node at %p\n", static_cast<void*>(n));
    )tb");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// TBL010 — EventHandle member never canceled
// ----------------------------------------------------------------------

TEST(TblintHandleLifetime, UncanceledMemberFires)
{
    const auto fs = lintContent("src/a.hh", R"tb(
        class Owner {
            EventHandle tick_;
        };
    )tb");
    EXPECT_EQ(countRule(fs, "TBL010"), 1u);
}

TEST(TblintHandleLifetime, UncanceledHandleVectorFires)
{
    const auto fs = lintContent("src/a.hh", R"tb(
        class Owner {
            std::vector<EventHandle> pending_;
        };
    )tb");
    EXPECT_EQ(countRule(fs, "TBL010"), 1u);
}

TEST(TblintHandleLifetime, CancelInSameFileIsClean)
{
    const auto fs = lintContent("src/a.hh", R"tb(
        class Owner {
            void reset() { tick_.cancel(queue_); }
            EventHandle tick_;
        };
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintHandleLifetime, CancelInCompanionIsClean)
{
    const auto fs = lintContent(
        "src/a.hh",
        R"tb(
        class Owner {
            EventHandle tick_;
        };
        )tb",
        R"tb(
        void Owner::teardown() { tick_.cancel(queue_); }
        )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintHandleLifetime, AllowSilences)
{
    const auto fs = lintContent("src/a.hh", R"tb(
        class Owner {
            // tblint-allow(TBL010): queue provably drains in dtor
            EventHandle tick_;
        };
    )tb");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// TBL011 — handle use after cancel
// ----------------------------------------------------------------------

TEST(TblintUseAfterCancel, WhenAfterCancelFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        void f(EventQueue& q, EventHandle& h) {
            h.cancel(q);
            Tick t = h.when(q);
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL011"), 1u);
}

TEST(TblintUseAfterCancel, ScheduledAfterCancelFires)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        void f(EventQueue& q, EventHandle& h) {
            h.cancel(q);
            if (h.scheduled(q)) { retune(); }
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL011"), 1u);
}

TEST(TblintUseAfterCancel, RescheduleResetsTheHandle)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        void f(EventQueue& q, EventHandle& h) {
            h.cancel(q);
            h = q.schedule(later, ev);
            Tick t = h.when(q);
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintUseAfterCancel, ScopeEndForgetsCancels)
{
    // The cancel happens in one function, the read in another — no
    // cross-function claim is made.
    const auto fs = lintContent("src/a.cc", R"tb(
        void stop(EventQueue& q, EventHandle& h) { h.cancel(q); }
        Tick peek(EventQueue& q, EventHandle& h) { return h.when(q); }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintUseAfterCancel, AllowSilences)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        void f(EventQueue& q, EventHandle& h) {
            h.cancel(q);
            // tblint-allow(TBL011): asserting the no-op contract
            assert(!h.scheduled(q));
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// TBL020 — sim-layer include discipline
// ----------------------------------------------------------------------

TEST(TblintSimLayering, SimIncludingHarnessFires)
{
    const auto fs = lintContent("src/sim/core.cc",
                                "#include \"harness/experiment.hh\"\n");
    EXPECT_EQ(countRule(fs, "TBL020"), 1u);
}

TEST(TblintSimLayering, SimIncludingObsFires)
{
    const auto fs = lintContent("src/sim/core.cc",
                                "#include \"obs/trace.hh\"\n");
    EXPECT_EQ(countRule(fs, "TBL020"), 1u);
}

TEST(TblintSimLayering, HarnessIncludingObsIsClean)
{
    // The rule polices src/sim only; upper layers may look down.
    const auto fs = lintContent("src/harness/obs_capture.cc",
                                "#include \"obs/trace.hh\"\n");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintSimLayering, SimIncludingSimIsClean)
{
    const auto fs = lintContent("src/sim/core.cc",
                                "#include \"sim/event_queue.hh\"\n");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintSimLayering, AllowSilences)
{
    const auto fs = lintContent(
        "src/sim/core.cc",
        "// tblint-allow(TBL020): transitional, tracked in ROADMAP\n"
        "#include \"obs/trace.hh\"\n");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// TBL021 — trace emission outside a TB_TRACED guard
// ----------------------------------------------------------------------

TEST(TblintUnguardedTrace, BareEmissionFires)
{
    const auto fs = lintContent("src/mem/bus.cc", R"tb(
        void Bus::note(obs::TraceSink* sink) {
            sink->instant(obs::kSim, now_, "grant");
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL021"), 1u);
}

TEST(TblintUnguardedTrace, GuardedBlockIsClean)
{
    const auto fs = lintContent("src/mem/bus.cc", R"tb(
        void Bus::note(obs::TraceSink* sink) {
            if (TB_TRACED(sink, obs::kSim)) {
                sink->instant(obs::kSim, now_, "grant");
            }
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintUnguardedTrace, GuardedSingleStatementIsClean)
{
    const auto fs = lintContent("src/mem/bus.cc", R"tb(
        void Bus::note(obs::TraceSink* sink) {
            if (TB_TRACED(sink, obs::kSim))
                sink->instant(obs::kSim, now_, "grant");
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintUnguardedTrace, GuardDoesNotLeakPastItsBlock)
{
    const auto fs = lintContent("src/mem/bus.cc", R"tb(
        void Bus::note(obs::TraceSink* sink) {
            if (TB_TRACED(sink, obs::kSim)) { mark(); }
            sink->instant(obs::kSim, now_, "grant");
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL021"), 1u);
}

TEST(TblintUnguardedTrace, ObsLayerIsExempt)
{
    const auto fs = lintContent("src/obs/trace.cc", R"tb(
        void TraceQueueObserver::flush(TraceSink* sink) {
            sink->instant(kSim, now_, "flush");
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintUnguardedTrace, AllowSilences)
{
    const auto fs = lintContent("src/mem/bus.cc", R"tb(
        void Bus::note(obs::TraceSink* sink) {
            // tblint-allow(TBL021): sink is null unless tracing is on
            sink->instant(obs::kSim, now_, "grant");
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// TBL023 — raw POSIX I/O in src/
// ----------------------------------------------------------------------

TEST(TblintRawPosixIo, RawReadInHarnessFires)
{
    const auto fs = lintContent("src/harness/fork_pipe.cc", R"tb(
        ssize_t pull(int fd, char* buf, size_t n) {
            return ::read(fd, buf, n);
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL023"), 1u);
}

TEST(TblintRawPosixIo, RawPollAndAcceptFire)
{
    // The scope is all of src/, not just the harness.
    const auto fs = lintContent("src/obs/loop.cc", R"tb(
        void serve(int lfd, struct pollfd* fds, size_t n) {
            (void)::poll(fds, n, 100);
            (void)::accept(lfd, nullptr, nullptr);
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL023"), 2u);
}

TEST(TblintRawPosixIo, NamespacedReadIsClean)
{
    // `foo::read(` is a namespaced API, not the libc call; method
    // calls and bare declarations are equally out of scope.
    const auto fs = lintContent("src/harness/codec.cc", R"tb(
        void load(Decoder& d, io::Source& src) {
            io::read(src, &d);
            d.read();
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintRawPosixIo, NoFileIsExempt)
{
    // No file in src/ is exempt, not even one named for I/O helpers:
    // nothing there owns an EINTR/short-transfer retry.
    const auto fs = lintContent("src/harness/posix_io.cc", R"tb(
        ssize_t readSome(int fd, char* buf, size_t n) {
            return ::read(fd, buf, n);
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL023"), 1u);
}

TEST(TblintRawPosixIo, AllowSilences)
{
    const auto fs = lintContent("src/harness/fork_pipe.cc", R"tb(
        void drain(int fd, char* buf, size_t n) {
            // tblint-allow(TBL023): EOF probe where EINTR is handled by the caller
            (void)::read(fd, buf, n);
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// TBL024 — direct Network::send above the fabric
// ----------------------------------------------------------------------

TEST(TblintRawNocSend, MemberCallOnNetworkReferenceFires)
{
    const auto fs = lintContent("src/thrifty/notifier.cc", R"tb(
        void Notifier::ping(noc::Network& net, NodeId a, NodeId b) {
            net.send(a, b, 8, [] {});
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL024"), 1u);
}

TEST(TblintRawNocSend, DeclInCompanionHeaderIsSeen)
{
    // The member lives in the .hh, the call in the .cc.
    const auto fs = lintContent(
        "src/mem/router_glue.cc",
        R"tb(
        void Glue::push(NodeId a, NodeId b) {
            net_.send(a, b, 72, [] {});
        }
        )tb",
        R"tb(
        class Glue {
            noc::Network& net_;
        };
        )tb");
    EXPECT_EQ(countRule(fs, "TBL024"), 1u);
}

TEST(TblintRawNocSend, QualifiedSpellingFires)
{
    const auto fs = lintContent("src/mem/a.cc", R"tb(
        void poke(noc::Network* n) {
            (n->*(&noc::Network::send))(0, 1, 8, [] {});
        }
    )tb");
    EXPECT_EQ(countRule(fs, "TBL024"), 1u);
}

TEST(TblintRawNocSend, FabricAndPartitionSendsAreClean)
{
    // Fabric wrappers and other types' sends share the method name
    // but not the receiver type.
    const auto fs = lintContent("src/thrifty/notifier.cc", R"tb(
        void Notifier::ping(mem::Fabric& fab, Mailbox& q) {
            fab.sendControl(0, 1, 8, [] {});
            q.send(0, 1, when_, [] {});
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintRawNocSend, DeliverAliasDoesNotPoisonNames)
{
    // `Network::Deliver fn` declares a callback, not a network.
    const auto fs = lintContent("src/mem/a.cc", R"tb(
        void stash(noc::Network::Deliver fn, Chan& chan) {
            chan.send(std::move(fn));
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintRawNocSend, OutsideProtocolLayersIsExempt)
{
    // The NoC's own tests and the harness drive Network::send freely.
    const auto fs = lintContent("src/noc/network.cc", R"tb(
        void Network::retire(noc::Network& peer) {
            peer.send(0, 1, 8, [] {});
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintRawNocSend, AllowSilences)
{
    const auto fs = lintContent("src/mem/fabric_like.cc", R"tb(
        void Wrapper::fire(noc::Network& net) {
            // tblint-allow(TBL024): this IS the sanctioned wrapper
            net.send(0, 1, 8, [] {});
        }
    )tb");
    EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------------------
// Engine plumbing
// ----------------------------------------------------------------------

TEST(TblintEngine, CatalogIsSortedAndStable)
{
    const auto& rules = tblint::ruleCatalog();
    ASSERT_FALSE(rules.empty());
    for (std::size_t i = 1; i < rules.size(); ++i)
        EXPECT_LT(std::string(rules[i - 1].id), rules[i].id);
}

TEST(TblintEngine, FindingsSortedByLine)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        std::random_device rd;
        auto t0 = std::chrono::steady_clock::now();
    )tb");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_LT(fs[0].line, fs[1].line);
}

TEST(TblintEngine, MultiRuleAllowSilencesBoth)
{
    const auto fs = lintContent("src/a.cc", R"tb(
        // tblint-allow(TBL002, TBL003): fixture exercises both ids
        auto k = reinterpret_cast<std::uintptr_t>(&rd); auto t = time(nullptr);
    )tb");
    EXPECT_TRUE(fs.empty());
}

TEST(TblintEngine, MissingFileYieldsIoFinding)
{
    const auto fs =
        tblint::lintFile("definitely/not/a/real/path.cc");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "IO");
}

} // namespace
