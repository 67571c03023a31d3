#include "dataflow.hh"

#include <cstddef>

#include "callgraph.hh"
#include "parse.hh"
#include "types.hh"

namespace shrimp::analyze
{

namespace
{

const std::set<std::string> nondetSources = {
    "rand",         "srand",         "drand48",
    "random",       "random_device", "mt19937",
    "system_clock", "steady_clock",  "high_resolution_clock",
    "gettimeofday", "clock_gettime", "localtime",
    "gmtime",       "time",
};

const std::set<std::string> scheduleSinks = {
    "schedule", "scheduleIn", "scheduleAt", "Delay",
};

/** Everything buildSummaries() needs from one function body, gathered
 *  once so the fixpoint iterations are pure bit-flipping. */
struct Facts
{
    std::string key;
    bool directTaint = false;              //!< return stmt touches a source
    std::vector<std::string> retCallees;   //!< keys called in return stmts
    std::set<int> taskParams;              //!< Task/Task-container params
    std::set<int> directConsumed;
    std::set<int> directSink;
    /** param index -> (callee key or "" when unresolved, arg index). */
    std::vector<std::tuple<int, std::string, int>> flows;
};

} // namespace

bool
isNondetSource(const Tokens &toks, std::size_t k)
{
    const Token &t = toks[k];
    if (!t.ident() || nondetSources.count(t.text) == 0)
        return false;
    return t.text != "time" ||
           (k + 2 < toks.size() && toks[k + 1].is("(") &&
            (toks[k + 2].is("NULL") || toks[k + 2].is("nullptr") ||
             toks[k + 2].is("0")));
}

bool
isScheduleSink(const std::string &name)
{
    return scheduleSinks.count(name) != 0;
}

void
buildSummaries(Project &p)
{
    // Seed: every definition gets a summary entry up front so
    // callSites() can resolve unqualified calls to defined free
    // functions through p.summaries.
    p.summaries.clear();
    for (const SourceFile &f : p.files)
        for (const FnDef &fn : f.fns)
            p.summaries[fnKey(fn)].defined = true;

    // Gather per-function facts (one linear pass per body).
    std::vector<Facts> all;
    for (const SourceFile &f : p.files) {
        for (const FnDef &fn : f.fns) {
            Facts fa;
            fa.key = fnKey(fn);

            const Tokens &toks = f.toks;
            const std::vector<CallSite> calls = callSites(p, f, fn);
            for (const CallSite &cs : calls)
                if (!cs.key.empty() && cs.stmtReturns)
                    fa.retCallees.push_back(cs.key);

            // Direct taint: a return statement mentioning a source.
            {
                int paren = 0;
                bool hasRet = false, hasSrc = false;
                for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd;
                     ++k) {
                    const Token &t = toks[k];
                    if (t.is("(") || t.is("["))
                        ++paren;
                    else if (t.is(")") || t.is("]"))
                        --paren;
                    else if ((t.is(";") && paren == 0) || t.is("{") ||
                             t.is("}")) {
                        if (hasRet && hasSrc)
                            fa.directTaint = true;
                        paren = 0;
                        hasRet = hasSrc = false;
                    } else if (t.is("return") || t.is("co_return"))
                        hasRet = true;
                    else if (isNondetSource(toks, k))
                        hasSrc = true;
                }
            }

            // Parameter flows. Task-typed params get consumption
            // analysis; every named param gets sink-flow tracking.
            for (std::size_t i = 0; i < fn.params.size(); ++i) {
                const Param &pa = fn.params[i];
                if (pa.name.empty())
                    continue;
                const bool isTaskParam =
                    typeIsTask(p.types, pa.type) ||
                    typeIsTaskContainer(p.types, pa.type);
                if (isTaskParam)
                    fa.taskParams.insert(int(i));

                // Scan every mention of the name in the body.
                for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd;
                     ++k) {
                    if (!toks[k].ident() || toks[k].text != pa.name)
                        continue;
                    const Token &prev = toks[k - 1];
                    const Token *next =
                        k + 1 < fn.bodyEnd ? &toks[k + 1] : nullptr;
                    if (prev.is(".") || prev.is("->") || prev.is("::"))
                        continue; // member of something else, same name
                    if (isTaskParam) {
                        if (next && (next->is(".") || next->is("->")))
                            fa.directConsumed.insert(int(i));
                        else if (prev.is(":")) // range-for
                            fa.directConsumed.insert(int(i));
                        else if (prev.is("=")) // stored somewhere
                            fa.directConsumed.insert(int(i));
                        else if (prev.is("co_await") ||
                                 prev.is("return") ||
                                 prev.is("co_return"))
                            fa.directConsumed.insert(int(i));
                    }
                }

                // Flows into call arguments.
                for (const CallSite &cs : calls) {
                    const auto args =
                        splitArgs(toks, cs.argsBegin, cs.argsEnd);
                    for (std::size_t a = 0; a < args.size(); ++a) {
                        bool mentions = false;
                        for (std::size_t q = args[a].first;
                             q < args[a].second; ++q)
                            if (toks[q].ident() &&
                                toks[q].text == pa.name)
                                mentions = true;
                        if (!mentions)
                            continue;
                        // Nested calls own their argument tokens; only
                        // credit the innermost call. A mention inside a
                        // nested call's parens is attributed when that
                        // nested call is visited.
                        bool inNested = false;
                        for (const CallSite &inner : calls) {
                            if (inner.nameIdx == cs.nameIdx)
                                continue;
                            if (inner.argsBegin > args[a].first &&
                                inner.argsEnd <= args[a].second) {
                                for (std::size_t q = inner.argsBegin;
                                     q < inner.argsEnd; ++q)
                                    if (toks[q].ident() &&
                                        toks[q].text == pa.name)
                                        inNested = true;
                            }
                        }
                        if (inNested)
                            continue;
                        fa.flows.emplace_back(int(i), cs.key, int(a));
                        if (scheduleSinks.count(cs.callee) != 0)
                            fa.directSink.insert(int(i));
                    }
                }
            }

            all.push_back(std::move(fa));
        }
    }

    // Fixpoint: propagate caller-ward until stable. Multiple
    // definitions under one key (overloads, same-named methods) join
    // conservatively via |=.
    for (bool changed = true; changed;) {
        changed = false;
        for (const Facts &fa : all) {
            FnSummary &s = p.summaries[fa.key];

            auto callee = [&](const std::string &key) -> const FnSummary * {
                auto it = p.summaries.find(key);
                return it == p.summaries.end() ? nullptr : &it->second;
            };

            if (!s.returnsTaint) {
                bool v = fa.directTaint;
                for (const std::string &k : fa.retCallees)
                    if (const FnSummary *cs = callee(k);
                        cs && cs->returnsTaint)
                        v = true;
                if (v) {
                    s.returnsTaint = true;
                    changed = true;
                }
            }
            for (int i : fa.taskParams) {
                if (s.taskParams.insert(i).second)
                    changed = true;
                if (s.consumesTaskParam.count(i) != 0)
                    continue;
                bool consumed = fa.directConsumed.count(i) != 0;
                for (const auto &[pi, key, arg] : fa.flows) {
                    if (pi != i || consumed)
                        continue;
                    if (key.empty()) {
                        consumed = true; // unresolved callee: assume yes
                    } else if (const FnSummary *cs = callee(key)) {
                        if (!cs->defined ||
                            cs->consumesTaskParam.count(arg) != 0)
                            consumed = true;
                    } else {
                        consumed = true; // declared-only: extern-ish
                    }
                }
                if (consumed) {
                    s.consumesTaskParam.insert(i);
                    changed = true;
                }
            }
            for (const auto &[pi, key, arg] : fa.flows) {
                if (s.paramToSink.count(pi) != 0)
                    continue;
                bool sink = fa.directSink.count(pi) != 0;
                if (!sink && !key.empty())
                    if (const FnSummary *cs = callee(key))
                        if (cs->paramToSink.count(arg) != 0)
                            sink = true;
                if (sink) {
                    s.paramToSink.insert(pi);
                    changed = true;
                }
            }
            for (int i : fa.directSink)
                if (s.paramToSink.insert(i).second)
                    changed = true;
        }
    }
}

} // namespace shrimp::analyze
