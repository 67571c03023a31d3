/**
 * @file
 * determinism-taint: host nondeterminism flowing into event
 * scheduling. The determinism rule bans wall-clock/PRNG *sources*
 * outright in the layered src dirs; everywhere else (tools, benches,
 * tests, examples) reading a host clock is legitimate — profilers and
 * reports do it — until the value reaches a simulation sink:
 *
 *   sinks    schedule()/scheduleIn()/scheduleAt()/Delay{...} — anything
 *            that turns a number into an event (when, seq) ordering —
 *            plus parameters the interprocedural summaries prove flow
 *            into such a call (paramToSink).
 *   sources  steady_clock/rand/random_device/... (dataflow.hh's list —
 *            the same set the determinism rule bans), and calls to
 *            functions whose summaries say the return value is tainted
 *            (returnsTaint, propagated through return statements).
 *
 * Propagation is per-function and statement-shaped, like the other
 * rules: a local assigned from a tainted expression is tainted (two
 * sweeps so declaration order does not matter); a tainted identifier
 * inside a sink call's argument list is a finding. Scope is every
 * scanned file — in src/ the plain determinism rule fires first
 * on the source itself, and an `analyze: allow(determinism)` there
 * does NOT silence the taint rule: allowed host reads must still stay
 * away from the event queue.
 */

#include <cstddef>

#include "callgraph.hh"
#include "dataflow.hh"
#include "parse.hh"
#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

/** Does the token range [lo, hi) mention a nondeterminism source, a
 *  tainted name, or a call returning taint? Returns the offending
 *  name, or "" when clean. */
std::string
taintIn(const SourceFile &f, std::size_t lo, std::size_t hi,
        const std::set<std::string> &tainted)
{
    const Tokens &toks = f.toks;
    for (std::size_t k = lo; k < hi && k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (!t.ident())
            continue;
        if (isNondetSource(toks, k))
            return t.text;
        if (tainted.count(t.text) != 0 && k > 0 &&
            !toks[k - 1].is(".") && !toks[k - 1].is("->") &&
            !toks[k - 1].is("::"))
            return t.text;
    }
    return "";
}

} // namespace

void
ruleTaint(const Project &p, std::vector<Finding> &out)
{
    for (const SourceFile &f : p.files) {
        for (const FnDef &fn : f.fns) {
            const Tokens &toks = f.toks;
            const std::vector<CallSite> calls = callSites(p, f, fn);

            // Pass 1: tainted locals. `lhs = <expr with taint>` or a
            // declaration with such an initializer taints lhs; calls
            // whose summaries return taint count as sources. Two
            // sweeps make it order-independent.
            std::set<std::string> tainted;
            for (int sweep = 0; sweep < 2; ++sweep) {
                std::size_t stmt = fn.bodyBegin + 1;
                int paren = 0;
                for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd;
                     ++k) {
                    const Token &t = toks[k];
                    if (t.is("(") || t.is("["))
                        ++paren;
                    else if (t.is(")") || t.is("]"))
                        --paren;
                    else if ((t.is(";") && paren == 0) || t.is("{") ||
                             t.is("}")) {
                        // Statement [stmt, k): find a top-level `=`.
                        int d = 0;
                        std::size_t eq = 0;
                        for (std::size_t q = stmt; q < k; ++q) {
                            if (toks[q].is("(") || toks[q].is("[") ||
                                toks[q].is("<"))
                                ++d;
                            else if (toks[q].is(")") ||
                                     toks[q].is("]") || toks[q].is(">"))
                                --d;
                            else if (toks[q].is("=") && d <= 0) {
                                eq = q;
                                break;
                            }
                        }
                        if (eq > stmt && toks[eq - 1].ident() &&
                            (eq < 2 || (!toks[eq - 2].is(".") &&
                                        !toks[eq - 2].is("->")))) {
                            bool dirty =
                                !taintIn(f, eq + 1, k, tainted)
                                     .empty();
                            for (const CallSite &cs : calls) {
                                if (dirty)
                                    break;
                                if (cs.nameIdx <= eq || cs.nameIdx >= k ||
                                    cs.key.empty())
                                    continue;
                                auto it = p.summaries.find(cs.key);
                                if (it != p.summaries.end() &&
                                    it->second.returnsTaint)
                                    dirty = true;
                            }
                            if (dirty)
                                tainted.insert(toks[eq - 1].text);
                        }
                        stmt = k + 1;
                        paren = 0;
                    }
                }
            }

            // Pass 2: tainted values reaching sinks.
            auto report = [&](int line, const std::string &sink,
                              const std::string &what) {
                if (f.allows(line, "determinism-taint"))
                    return;
                out.push_back(
                    {"determinism-taint", f.rel, line,
                     fn.qualName + "/" + sink + "/" + what,
                     "host-nondeterministic value '" + what +
                         "' flows into '" + sink + "' in " +
                         fn.qualName +
                         ": event (when, seq) ordering now depends on "
                         "the host, so runs are not reproducible"});
            };

            for (const CallSite &cs : calls) {
                const bool namedSink = isScheduleSink(cs.callee);
                const FnSummary *s = nullptr;
                if (!cs.key.empty()) {
                    auto it = p.summaries.find(cs.key);
                    if (it != p.summaries.end())
                        s = &it->second;
                }
                if (!namedSink && !s)
                    continue;
                const auto args =
                    splitArgs(toks, cs.argsBegin, cs.argsEnd);
                for (std::size_t a = 0; a < args.size(); ++a) {
                    const bool sinkArg =
                        namedSink ||
                        (s && s->paramToSink.count(int(a)) != 0);
                    if (!sinkArg)
                        continue;
                    const std::string what = taintIn(
                        f, args[a].first, args[a].second, tainted);
                    if (!what.empty()) {
                        report(cs.line, cs.callee, what);
                        break;
                    }
                }
            }

            // Brace-constructed sinks: `Delay{expr}` has no call parens
            // and is invisible to callSites().
            for (std::size_t k = fn.bodyBegin + 1; k + 1 < fn.bodyEnd;
                 ++k) {
                if (!toks[k].ident() || !isScheduleSink(toks[k].text) ||
                    !toks[k + 1].is("{"))
                    continue;
                const std::size_t close = skipBalanced(toks, k + 1);
                const std::string what =
                    taintIn(f, k + 2, close - 1, tainted);
                if (!what.empty())
                    report(toks[k].line, toks[k].text, what);
            }
        }
    }
}

} // namespace shrimp::analyze
