#include "tblint/rules.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "tblint/lexer.hh"

namespace tblint {

namespace {

// ----------------------------------------------------------------------
// Shared matcher plumbing
// ----------------------------------------------------------------------

/** Everything a rule sees about one file. */
struct FileCtx
{
    std::string path; ///< normalized to forward slashes
    const std::vector<Token>& toks;
    const std::vector<Token>& companion;
    std::set<std::string> unorderedNames; ///< self + companion decls
};

bool
isIdent(const std::vector<Token>& t, std::size_t i, const char* s)
{
    return i < t.size() && t[i].kind == TokKind::Ident &&
           t[i].text == s;
}

bool
isPunct(const std::vector<Token>& t, std::size_t i, const char* s)
{
    return i < t.size() && t[i].kind == TokKind::Punct &&
           t[i].text == s;
}

bool
pathEndsWith(const std::string& path, const std::string& tail)
{
    return path.size() >= tail.size() &&
           path.compare(path.size() - tail.size(), tail.size(),
                        tail) == 0;
}

/** True when @p path lies under directory @p dir ("src/sim"). */
bool
pathUnder(const std::string& path, const std::string& dir)
{
    const std::string needle = dir + "/";
    if (path.compare(0, needle.size(), needle) == 0)
        return true;
    return path.find("/" + needle) != std::string::npos;
}

void
emit(std::vector<Finding>* out, const FileCtx& ctx, const char* rule,
     int line, std::string message, std::string hint)
{
    out->push_back(Finding{rule, ctx.path, line, std::move(message),
                           std::move(hint)});
}

/**
 * Skip a balanced <...> starting at the '<' at @p i. Returns the index
 * just past the matching '>', or npos when the angles never balance
 * (e.g. a stray operator<) — callers drop the match.
 */
std::size_t
skipAngles(const std::vector<Token>& t, std::size_t i)
{
    if (!isPunct(t, i, "<"))
        return std::string::npos;
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (isPunct(t, i, "<"))
            ++depth;
        else if (isPunct(t, i, ">") && --depth == 0)
            return i + 1;
        else if (isPunct(t, i, ";"))
            return std::string::npos; // statement ended: not a template
    }
    return std::string::npos;
}

/** Skip a balanced [...] starting at @p i; @p i itself if no '['. */
std::size_t
skipBrackets(const std::vector<Token>& t, std::size_t i)
{
    if (!isPunct(t, i, "["))
        return i;
    int depth = 0;
    for (; i < t.size(); ++i) {
        if (isPunct(t, i, "["))
            ++depth;
        else if (isPunct(t, i, "]") && --depth == 0)
            return i + 1;
    }
    return i;
}

bool
isUnorderedTypeName(const std::string& s)
{
    return s == "unordered_map" || s == "unordered_set" ||
           s == "unordered_multimap" || s == "unordered_multiset";
}

/**
 * Variable names declared in @p t with a std::unordered_* type,
 * either directly (`std::unordered_map<K, V> name`) or through a
 * single-level `using Alias = std::unordered_map<...>` alias.
 */
void
collectUnorderedNames(const std::vector<Token>& t,
                      std::set<std::string>* names)
{
    // Pass 1: type aliases of unordered containers.
    std::set<std::string> aliases;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (!isIdent(t, i, "using") || t[i + 1].kind != TokKind::Ident ||
            !isPunct(t, i + 2, "="))
            continue;
        for (std::size_t j = i + 3;
             j < t.size() && !isPunct(t, j, ";"); ++j) {
            if (t[j].kind == TokKind::Ident &&
                isUnorderedTypeName(t[j].text)) {
                aliases.insert(t[i + 1].text);
                break;
            }
        }
    }

    // Pass 2: declarations.
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        std::size_t after = std::string::npos;
        if (isUnorderedTypeName(t[i].text)) {
            after = skipAngles(t, i + 1);
        } else if (aliases.count(t[i].text)) {
            // `Alias name;` — but not the alias definition itself.
            if (i >= 2 && isIdent(t, i - 2, "using"))
                continue;
            after = i + 1;
        }
        if (after == std::string::npos)
            continue;
        // `>::iterator` and friends are not declarations.
        if (isPunct(t, after, "::"))
            continue;
        while (isPunct(t, after, "&") || isPunct(t, after, "*") ||
               isIdent(t, after, "const"))
            ++after;
        if (after < t.size() && t[after].kind == TokKind::Ident &&
            !isPunct(t, after + 1, "("))
            names->insert(t[after].text);
    }
}

// ----------------------------------------------------------------------
// TBL001 — unordered-container iteration
// ----------------------------------------------------------------------

void
ruleUnorderedIteration(const FileCtx& ctx, std::vector<Finding>* out)
{
    const auto& t = ctx.toks;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!isIdent(t, i, "for") || !isPunct(t, i + 1, "("))
            continue;
        // Find the range-for ':' at paren depth 1.
        int depth = 0;
        std::size_t colon = 0, close = 0;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (isPunct(t, j, "("))
                ++depth;
            else if (isPunct(t, j, ")")) {
                if (--depth == 0) {
                    close = j;
                    break;
                }
            } else if (isPunct(t, j, ":") && depth == 1 && !colon)
                colon = j;
        }
        if (!colon || !close)
            continue;
        // Range expression: accept `name`, `this->name`, `a.b.name`;
        // anything with a call in it is skipped, not guessed at.
        std::string name;
        bool simple = true;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (t[j].kind == TokKind::Ident)
                name = t[j].text;
            else if (!isPunct(t, j, ".") && !isPunct(t, j, "->"))
                simple = false;
        }
        if (!simple || name.empty() || !ctx.unorderedNames.count(name))
            continue;
        emit(out, ctx, "TBL001", t[i].line,
             "iterating unordered container '" + name +
                 "' — traversal order is unspecified and must not "
                 "reach stats/serde/JSON output",
             "copy the keys into a std::vector, std::sort them and "
             "iterate that (or store in a std::map); if every "
             "consumer is order-insensitive, suppress with "
             "tblint-allow(TBL001) and say why");
    }
}

// ----------------------------------------------------------------------
// TBL002 — wall clock / ambient entropy
// ----------------------------------------------------------------------

bool
isBannedClockType(const std::string& s)
{
    return s == "system_clock" || s == "steady_clock" ||
           s == "high_resolution_clock" || s == "random_device" ||
           s == "mt19937" || s == "mt19937_64" ||
           s == "default_random_engine" || s == "minstd_rand" ||
           s == "minstd_rand0";
}

bool
isBannedClockCall(const std::string& s)
{
    return s == "time" || s == "clock" || s == "rand" ||
           s == "srand" || s == "gettimeofday" ||
           s == "clock_gettime" || s == "timespec_get" ||
           s == "localtime" || s == "gmtime" || s == "mktime" ||
           // Blocking sleeps are wall-clock dependencies too: a
           // genuine host-time wait (the --isolate deadline watch)
           // carries an inline allow saying so.
           s == "sleep" || s == "usleep" || s == "nanosleep" ||
           s == "alarm" || s == "sleep_for" || s == "sleep_until";
}

void
ruleWallClock(const FileCtx& ctx, std::vector<Finding>* out)
{
    // The one sanctioned entropy seam: every simulation random stream.
    if (pathEndsWith(ctx.path, "sim/random.hh"))
        return;
    const auto& t = ctx.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        const bool member_qualified =
            i > 0 && (isPunct(t, i - 1, ".") || isPunct(t, i - 1, "->"));
        if (member_qualified)
            continue; // x.time(...) is some model's method, not libc
        const std::string& s = t[i].text;
        if (isBannedClockType(s)) {
            emit(out, ctx, "TBL002", t[i].line,
                 "'" + s +
                     "' is wall-clock/ambient entropy — simulation "
                     "behaviour must depend only on (config, seed)",
                 "derive times from Tick and randomness from "
                 "tb::Random(seed); for true wall-clock sites "
                 "(deadlines, bench timing) add "
                 "tblint-allow(TBL002) with the reason");
            continue;
        }
        if (!isBannedClockCall(s) || !isPunct(t, i + 1, "("))
            continue;
        // `Tick time(Bucket b)` declares a method named time — a
        // preceding identifier is a return type, not a call site,
        // unless it is a statement keyword.
        if (i > 0 && t[i - 1].kind == TokKind::Ident &&
            t[i - 1].text != "return" && t[i - 1].text != "else" &&
            t[i - 1].text != "do" && t[i - 1].text != "case")
            continue;
        if (i > 0 && isPunct(t, i - 1, "::")) {
            // std::time / ::time / this_thread::sleep_for stay
            // banned; Foo::time is a method.
            if (i > 1 && t[i - 2].kind == TokKind::Ident &&
                t[i - 2].text != "std" &&
                t[i - 2].text != "this_thread")
                continue;
        }
        emit(out, ctx, "TBL002", t[i].line,
             "call to '" + s +
                 "()' injects wall-clock/global entropy — simulation "
                 "behaviour must depend only on (config, seed)",
             "use tb::Random(seed) / simulated Ticks instead; for "
             "true wall-clock sites add tblint-allow(TBL002) with "
             "the reason");
    }
}

// ----------------------------------------------------------------------
// TBL003 — pointer identity in output
// ----------------------------------------------------------------------

void
rulePointerIdentity(const FileCtx& ctx, std::vector<Finding>* out)
{
    const auto& t = ctx.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind == TokKind::Str &&
            // tblint-allow(TBL003): matcher must name the banned token
            t[i].text.find("%p") != std::string::npos) {
            emit(out, ctx, "TBL003", t[i].line,
                 // tblint-allow(TBL003): diagnostic names the specifier
                 "\"%p\" formats a pointer value — addresses differ "
                 "run to run (ASLR, allocator), so they must never "
                 "reach artifacts",
                 "print a stable identity instead: node id, slot "
                 "index, or a name");
            continue;
        }
        // std::hash<T*> — hashing addresses.
        if (isIdent(t, i, "hash") && i > 0 && isPunct(t, i - 1, "::") &&
            isPunct(t, i + 1, "<")) {
            const std::size_t end = skipAngles(t, i + 1);
            if (end != std::string::npos) {
                for (std::size_t j = i + 2; j + 1 < end; ++j) {
                    if (isPunct(t, j, "*")) {
                        emit(out, ctx, "TBL003", t[i].line,
                             "std::hash of a pointer type hashes the "
                             "address — hash a stable key (id, index, "
                             "name) instead",
                             "key the container by a stable identity "
                             "rather than object address");
                        break;
                    }
                }
            }
            continue;
        }
        // reinterpret_cast<[u]intptr_t>(ptr) — address laundering.
        if (isIdent(t, i, "reinterpret_cast") &&
            isPunct(t, i + 1, "<")) {
            const std::size_t end = skipAngles(t, i + 1);
            if (end == std::string::npos)
                continue;
            for (std::size_t j = i + 2; j + 1 < end; ++j) {
                if (isIdent(t, j, "uintptr_t") ||
                    isIdent(t, j, "intptr_t")) {
                    emit(out, ctx, "TBL003", t[i].line,
                         "reinterpret_cast of a pointer to an integer "
                         "bakes the address into a value — addresses "
                         "are not stable across runs",
                         "carry a stable id/index instead of the "
                         "pointer bits");
                    break;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// TBL010 — EventHandle member never canceled
// ----------------------------------------------------------------------

/** True when tokens contain `name[...]?.cancel` / `name->cancel`. */
bool
hasCancelOf(const std::vector<Token>& t, const std::string& name)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!isIdent(t, i, name.c_str()))
            continue;
        std::size_t j = skipBrackets(t, i + 1);
        if ((isPunct(t, j, ".") || isPunct(t, j, "->")) &&
            isIdent(t, j + 1, "cancel"))
            return true;
    }
    return false;
}

void
ruleHandleNeverCanceled(const FileCtx& ctx, std::vector<Finding>* out)
{
    const auto& t = ctx.toks;
    // The queue's own header defines EventHandle; nothing to own there.
    if (pathEndsWith(ctx.path, "sim/event_queue.hh"))
        return;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        std::string name;
        int line = 0;
        if (isIdent(t, i, "EventHandle") &&
            t[i + 1].kind == TokKind::Ident &&
            isPunct(t, i + 2, ";")) {
            name = t[i + 1].text;
            line = t[i].line;
        } else if (isIdent(t, i, "vector") &&
                   isPunct(t, i + 1, "<") &&
                   isIdent(t, i + 2, "EventHandle") &&
                   isPunct(t, i + 3, ">") &&
                   i + 5 < t.size() &&
                   t[i + 4].kind == TokKind::Ident &&
                   isPunct(t, i + 5, ";")) {
            name = t[i + 4].text;
            line = t[i].line;
        } else {
            continue;
        }
        if (hasCancelOf(ctx.toks, name) ||
            hasCancelOf(ctx.companion, name))
            continue;
        emit(out, ctx, "TBL010", line,
             "EventHandle member '" + name +
                 "' is never canceled — a pending event can fire "
                 "after its owner is gone or its state was reset",
             "cancel the handle in the owner's teardown/reset path "
             "(see the PR 2 cancelation-leak fix); if the queue "
             "provably drains first, suppress with "
             "tblint-allow(TBL010) and say why");
    }
}

// ----------------------------------------------------------------------
// TBL011 — handle use after cancel
// ----------------------------------------------------------------------

void
ruleUseAfterCancel(const FileCtx& ctx, std::vector<Finding>* out)
{
    const auto& t = ctx.toks;
    std::map<std::string, int> canceled; // name -> cancel line
    int brace = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (isPunct(t, i, "{")) {
            ++brace;
            continue;
        }
        if (isPunct(t, i, "}")) {
            if (--brace <= 0)
                canceled.clear(); // out of any definition: new scope
            continue;
        }
        if (t[i].kind != TokKind::Ident)
            continue;
        const std::string& name = t[i].text;
        const std::size_t j = skipBrackets(t, i + 1);
        // Reassignment forgets the cancel (handle now refers to a new
        // event). Compound/comparison operators don't assign here —
        // the lexer keeps '==' as two '=' tokens, so require the next
        // token not be '=' as well.
        if (isPunct(t, j, "=") && !isPunct(t, j + 1, "=") &&
            !(i > 0 && (isPunct(t, i - 1, ".") ||
                        isPunct(t, i - 1, "->")))) {
            canceled.erase(name);
            continue;
        }
        if (!isPunct(t, j, ".") && !isPunct(t, j, "->"))
            continue;
        if (isIdent(t, j + 1, "cancel") && isPunct(t, j + 2, "(")) {
            canceled[name] = t[i].line;
            continue;
        }
        if ((isIdent(t, j + 1, "when") ||
             isIdent(t, j + 1, "scheduled")) &&
            isPunct(t, j + 2, "(")) {
            const auto it = canceled.find(name);
            if (it == canceled.end())
                continue;
            emit(out, ctx, "TBL011", t[j + 1].line,
                 "'" + name + "." + t[j + 1].text +
                     "()' after '" + name + ".cancel()' (line " +
                     std::to_string(it->second) +
                     ") — a canceled handle is a stale no-op "
                     "(kTickNever/false), this read cannot mean "
                     "anything",
                 "read when()/scheduled() before canceling, or "
                 "reschedule into the handle first");
        }
    }
}

// ----------------------------------------------------------------------
// TBL020 — sim-layer include discipline
// ----------------------------------------------------------------------

void
ruleSimLayering(const FileCtx& ctx, std::vector<Finding>* out)
{
    if (!pathUnder(ctx.path, "src/sim"))
        return;
    for (const Token& tok : ctx.toks) {
        if (tok.kind != TokKind::PP)
            continue;
        // Parse `#include "header"` (with or without space after #).
        std::istringstream is(tok.text);
        std::string first;
        is >> first;
        if (first == "#") {
            std::string second;
            is >> second;
            if (second != "include")
                continue;
        } else if (first != "#include") {
            continue;
        }
        std::string rest;
        std::getline(is, rest);
        const std::size_t open = rest.find('"');
        if (open == std::string::npos)
            continue;
        const std::size_t close = rest.find('"', open + 1);
        if (close == std::string::npos)
            continue;
        const std::string header =
            rest.substr(open + 1, close - open - 1);
        if (header.rfind("harness/", 0) == 0 ||
            header.rfind("obs/", 0) == 0) {
            emit(out, ctx, "TBL020", tok.line,
                 "src/sim includes \"" + header +
                     "\" — the simulation kernel must not depend on "
                     "the harness/observability layers above it",
                 "invert the dependency: expose a seam (observer, "
                 "callback, sink pointer) in sim and let the upper "
                 "layer attach to it");
        }
    }
}

// ----------------------------------------------------------------------
// TBL021 — trace emission outside a TB_TRACED guard
// ----------------------------------------------------------------------

void
ruleUnguardedTrace(const FileCtx& ctx, std::vector<Finding>* out)
{
    // The obs layer itself renders events; the seam rule applies to
    // the instrumented layers below/around it.
    if (pathUnder(ctx.path, "src/obs"))
        return;
    const auto& t = ctx.toks;
    bool mentions_tracing = false;
    for (const Token& tok : t) {
        if (tok.kind == TokKind::Ident &&
            (tok.text == "TB_TRACED" || tok.text == "TraceSink")) {
            mentions_tracing = true;
            break;
        }
    }
    if (!mentions_tracing)
        return;

    std::vector<int> guardDepths; // brace depths of TB_TRACED blocks
    bool armed = false;           // saw TB_TRACED, block not yet open
    int brace = 0, paren = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (isPunct(t, i, "(")) {
            ++paren;
        } else if (isPunct(t, i, ")")) {
            --paren;
        } else if (isPunct(t, i, "{")) {
            ++brace;
            if (armed) {
                guardDepths.push_back(brace);
                armed = false;
            }
        } else if (isPunct(t, i, "}")) {
            --brace;
            while (!guardDepths.empty() && guardDepths.back() > brace)
                guardDepths.pop_back();
        } else if (isPunct(t, i, ";")) {
            if (paren == 0)
                armed = false; // single-statement guard ended
        } else if (isIdent(t, i, "TB_TRACED")) {
            armed = true;
        } else if ((isIdent(t, i, "instant") ||
                    isIdent(t, i, "complete")) &&
                   i > 0 &&
                   (isPunct(t, i - 1, ".") ||
                    isPunct(t, i - 1, "->")) &&
                   isPunct(t, i + 1, "(")) {
            if (guardDepths.empty() && !armed) {
                emit(out, ctx, "TBL021", t[i].line,
                     "trace emission '" + t[i].text +
                         "()' outside a TB_TRACED(...) guard — the "
                         "seam will not compile out under "
                         "-DTB_TRACING=OFF",
                     "wrap the emission in `if (TB_TRACED(sink, "
                     "category)) { ... }`");
            }
        }
    }
}

// ----------------------------------------------------------------------
// TBL023 — raw POSIX I/O outside harness/posix_io.cc
// ----------------------------------------------------------------------

void
ruleRawPosixIo(const FileCtx& ctx, std::vector<Finding>* out)
{
    // Pipe I/O (the --isolate fork pipe) must go through the harness
    // posix_io helpers (readSome/writeFull): they own the
    // EINTR-as-retry policy, so a signal landing mid-syscall — SIGCHLD
    // from a reaped child, a profiler — never truncates a point's
    // artifact. A raw ::read
    // anywhere else in src/ is a reintroduced EINTR bug waiting for a
    // signal to happen; posix_io.cc itself is where the raw calls
    // live.
    if (!pathUnder(ctx.path, "src") ||
        pathEndsWith(ctx.path, "src/harness/posix_io.cc"))
        return;
    const auto& t = ctx.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!(isIdent(t, i, "read") || isIdent(t, i, "write") ||
              isIdent(t, i, "poll") || isIdent(t, i, "accept")))
            continue;
        // Only the global-namespace spelling `::read(` counts;
        // `foo::read(` is some namespaced API, `obj.read(` a method.
        // A keyword before the `::` (`return ::read(...)`) is not a
        // qualifier — the call is still global.
        if (i == 0 || !isPunct(t, i - 1, "::"))
            continue;
        if (i >= 2 && t[i - 2].kind == TokKind::Ident &&
            t[i - 2].text != "return" && t[i - 2].text != "throw")
            continue;
        if (!isPunct(t, i + 1, "("))
            continue;
        emit(out, ctx, "TBL023", t[i].line,
             "raw '::" + t[i].text +
                 "()' outside harness/posix_io.cc — bypasses the "
                 "posix_io EINTR-as-retry policy, so a mid-syscall "
                 "signal becomes a short read or a failed write",
             "use harness::readSome/writeFull (or add an EINTR-safe "
             "helper to posix_io); a deliberate raw call needs a "
             "tblint-allow reason");
    }
}

// ----------------------------------------------------------------------
// TBL024 — direct Network::send above the fabric
// ----------------------------------------------------------------------

/**
 * Names declared with type `Network` (value, reference or pointer) in
 * @p t — `noc::Network& net;`, a constructor parameter, a local. The
 * nested callback type `Network::Deliver fn` is not a network, so a
 * `::` straight after the type name disqualifies the match.
 */
void
collectNetworkNames(const std::vector<Token>& t,
                    std::set<std::string>* names)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!isIdent(t, i, "Network"))
            continue;
        std::size_t after = i + 1;
        if (isPunct(t, after, "::"))
            continue;
        while (isPunct(t, after, "&") || isPunct(t, after, "*") ||
               isIdent(t, after, "const"))
            ++after;
        if (after < t.size() && t[after].kind == TokKind::Ident &&
            !isPunct(t, after + 1, "("))
            names->insert(t[after].text);
    }
}

void
ruleDirectNetworkSend(const FileCtx& ctx, std::vector<Finding>* out)
{
    // The protocol layers speak to the NoC only through mem::Fabric:
    // its wrappers attach the coherence observer and the byte
    // accounting. A raw Network::send from src/mem or src/thrifty
    // skips both, so a message can arrive unobserved and unbilled.
    // The fabric itself carries the allows.
    if (!pathUnder(ctx.path, "src/mem") &&
        !pathUnder(ctx.path, "src/thrifty"))
        return;
    std::set<std::string> nets;
    collectNetworkNames(ctx.toks, &nets);
    collectNetworkNames(ctx.companion, &nets);
    const auto& t = ctx.toks;
    for (std::size_t i = 2; i < t.size(); ++i) {
        if (!isIdent(t, i, "send"))
            continue;
        const bool member_call =
            isPunct(t, i + 1, "(") &&
            (isPunct(t, i - 1, ".") || isPunct(t, i - 1, "->")) &&
            t[i - 2].kind == TokKind::Ident &&
            nets.count(t[i - 2].text) != 0;
        // The qualified spelling also covers member-pointer forms
        // (`&Network::send`), where no call paren follows.
        const bool qualified =
            isPunct(t, i - 1, "::") && isIdent(t, i - 2, "Network");
        if (!member_call && !qualified)
            continue;
        emit(out, ctx, "TBL024", t[i].line,
             "direct Network::send above the fabric — the protocol "
             "layers must not hand raw deliveries to the NoC",
             "route the message through mem::Fabric "
             "(toDirectory/toController/sendControl) or the per-hop "
             "API so the observer and byte accounting see it");
    }
}

// ----------------------------------------------------------------------
// Driver + suppression pass
// ----------------------------------------------------------------------

std::string
normalizePath(std::string p)
{
    std::replace(p.begin(), p.end(), '\\', '/');
    // Collapse "./" prefixes so pathUnder matching behaves.
    while (p.rfind("./", 0) == 0)
        p.erase(0, 2);
    return p;
}

bool
isKnownRule(const std::string& id)
{
    for (const RuleInfo& r : ruleCatalog()) {
        if (id == r.id)
            return true;
    }
    return false;
}

/** TBL000: every allow must name known rules and carry a reason. */
void
ruleSuppressionHygiene(const FileCtx& ctx,
                       const std::vector<Allow>& allows,
                       std::vector<Finding>* out)
{
    for (const Allow& a : allows) {
        if (a.rules.empty()) {
            emit(out, ctx, "TBL000", a.line,
                 "tblint-allow names no rule — use "
                 "tblint-allow(TBLxxx): reason",
                 "name the rule ID(s) being suppressed");
            continue;
        }
        for (const std::string& id : a.rules) {
            if (!isKnownRule(id)) {
                emit(out, ctx, "TBL000", a.line,
                     "tblint-allow names unknown rule '" + id + "'",
                     "run `tblint --list-rules` for the catalog");
            }
        }
        if (a.reason.empty()) {
            emit(out, ctx, "TBL000", a.line,
                 "tblint-allow without a reason — a suppression is a "
                 "claim and must say why it holds",
                 "append `: reason` to the directive");
        }
    }
}

bool
isSuppressed(const Finding& f, const std::vector<Allow>& allows)
{
    if (f.rule == "TBL000")
        return false; // hygiene findings are not themselves allowable
    for (const Allow& a : allows) {
        if (a.reason.empty())
            continue; // malformed allows suppress nothing
        if (a.line != f.line && a.line != f.line - 1)
            continue;
        for (const std::string& id : a.rules) {
            if (id == f.rule)
                return true;
        }
    }
    return false;
}

} // namespace

const std::vector<RuleInfo>&
ruleCatalog()
{
    static const std::vector<RuleInfo> kRules = {
        {"TBL000", "suppression-hygiene",
         "tblint-allow must name known rules and carry a reason"},
        {"TBL001", "unordered-iteration",
         "no unordered_map/set iteration order reaching "
         "stats/serde/JSON — sort before emitting"},
        {"TBL002", "wall-clock",
         "no wall-clock/ambient entropy outside sim/random.hh; "
         "true wall-clock sites carry an inline allow"},
        {"TBL003", "pointer-identity",
         // tblint-allow(TBL003): catalog summary names the specifier
         "no pointer values in output: %p, std::hash<T*>, "
         "pointer-to-integer casts"},
        {"TBL010", "handle-never-canceled",
         "EventHandle members must be canceled on their owner's "
         "teardown path"},
        {"TBL011", "use-after-cancel",
         "no when()/scheduled() reads of a handle after cancel() "
         "without rescheduling"},
        {"TBL020", "sim-layering",
         "src/sim must not include src/harness or src/obs headers"},
        {"TBL021", "unguarded-trace",
         "TraceSink emission outside src/obs must sit under "
         "TB_TRACED() so -DTB_TRACING=OFF compiles it out"},
        {"TBL023", "raw-posix-io",
         "no raw ::read/::write/::poll/::accept in src/ outside "
         "harness/posix_io.cc — I/O must use its EINTR-safe helpers"},
        {"TBL024", "raw-noc-send",
         "no direct Network::send from src/mem or src/thrifty — "
         "messages must travel mem::Fabric (or the hop API) so "
         "the observer and byte accounting see them"},
    };
    return kRules;
}

std::vector<Finding>
lintContent(const std::string& path, const std::string& content,
            const std::string& companion)
{
    const LexedFile self = lex(content);
    const LexedFile comp = lex(companion);

    FileCtx ctx{normalizePath(path), self.tokens, comp.tokens, {}};
    collectUnorderedNames(self.tokens, &ctx.unorderedNames);
    collectUnorderedNames(comp.tokens, &ctx.unorderedNames);

    std::vector<Finding> raw;
    ruleSuppressionHygiene(ctx, self.allows, &raw);
    ruleUnorderedIteration(ctx, &raw);
    ruleWallClock(ctx, &raw);
    rulePointerIdentity(ctx, &raw);
    ruleHandleNeverCanceled(ctx, &raw);
    ruleUseAfterCancel(ctx, &raw);
    ruleSimLayering(ctx, &raw);
    ruleUnguardedTrace(ctx, &raw);
    ruleRawPosixIo(ctx, &raw);
    ruleDirectNetworkSend(ctx, &raw);

    std::vector<Finding> kept;
    for (Finding& f : raw) {
        if (!isSuppressed(f, self.allows))
            kept.push_back(std::move(f));
    }
    std::sort(kept.begin(), kept.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return kept;
}

namespace {

bool
readFile(const std::string& path, std::string* out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** foo.cc <-> foo.hh (the repo's pairing convention). */
std::string
companionPath(const std::string& path)
{
    if (pathEndsWith(path, ".cc"))
        return path.substr(0, path.size() - 3) + ".hh";
    if (pathEndsWith(path, ".hh"))
        return path.substr(0, path.size() - 3) + ".cc";
    return "";
}

} // namespace

std::vector<Finding>
lintFile(const std::string& path)
{
    std::string content;
    if (!readFile(path, &content)) {
        return {Finding{"IO", path, 0, "cannot read file", ""}};
    }
    std::string companion;
    const std::string cp = companionPath(path);
    if (!cp.empty())
        readFile(cp, &companion); // absent companion is fine
    return lintContent(path, content, companion);
}

} // namespace tblint
