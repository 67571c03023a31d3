/**
 * @file
 * dropped-task: a Task is lazy — a call whose returned Task is never
 * co_awaited, spawned, returned or started is a simulated activity
 * that silently does not happen. `[[nodiscard]]` (kept on sim::Task
 * by the hygiene rule) catches the bare-call form at compile time only
 * when warnings are errors, and can never catch `auto t = f();`
 * followed by nothing; this pass catches both, plus the shapes that
 * need type information:
 *
 *   - a member call whose receiver resolves to a class with a method
 *     of that name counts where that method returns a Task: a name
 *     that returns a Task in one class and not in another (`send`) is
 *     checked there alone. A name that every declaration makes a Task
 *     (`append`) is no Task call through a standard-library receiver
 *     (`std::string::append`), but still one through any other class,
 *     which may inherit it (the index records no base classes), and
 *     through an untyped receiver (`auto &`, a template parameter),
 *     which leaves an ambiguous name to `[[nodiscard]]`,
 *   - a call nested in another call's arguments is consumed ONLY when
 *     the receiving parameter actually consumes it — the enclosing
 *     function's interprocedural summary (dataflow.hh) is consulted,
 *     and a call the index cannot resolve is assumed to consume
 *     (conservative: `vec.push_back(f())`, `spawn(f())` stay silent),
 *   - a local `std::vector<sim::Task<>>` (or any indexed container/
 *     wrapper of Task, through aliases) that is populated but never
 *     drained — every mention is a push_back/emplace/reserve-style
 *     populate — holds coroutines that never run, even though each
 *     push "used" the Task.
 *
 * Per statement containing a call to an indexed Task-returning name:
 *
 *   - the statement co_awaits / returns / co_returns     -> consumed
 *   - nested in a consuming (or unresolved) call         -> consumed
 *   - nested in a provably non-consuming call            -> FINDING
 *   - assigned to a member or dereferenced target        -> consumed
 *   - assigned to a local that appears again later
 *     in the body                                        -> consumed
 *   - assigned to a local never mentioned again          -> FINDING
 *   - a bare expression statement                        -> FINDING
 */

#include <cstddef>
#include <vector>

#include "callgraph.hh"
#include "parse.hh"
#include "rules.hh"
#include "types.hh"

namespace shrimp::analyze
{

namespace
{

bool
identAppearsAfter(const Tokens &toks, std::size_t from, std::size_t end,
                  const std::string &name)
{
    for (std::size_t k = from; k < end; ++k)
        if (toks[k].ident() && toks[k].text == name)
            return true;
    return false;
}

/** Keywords that may directly precede a genuine call expression. Any
 *  *other* identifier right before `name(` means `Type name(args)` — a
 *  variable declaration whose name merely collides with a Task
 *  function (e.g. `ServerCall call(...)`). */
bool
mayPrecedeCall(const Token &t)
{
    return !t.ident() ||
           t.is("return") || t.is("co_return") || t.is("co_await") ||
           t.is("co_yield") || t.is("else") || t.is("do") ||
           t.is("case") || t.is("throw");
}

/** Container methods that only put Tasks in (or size the storage) —
 *  they never run or hand off what is stored. */
bool
isPopulateMethod(const std::string &m)
{
    static const std::set<std::string> ms = {
        "push_back", "emplace_back", "emplace", "push", "insert",
        "reserve", "resize", "size", "empty", "capacity",
    };
    return ms.count(m) != 0;
}

/** The innermost call whose argument range contains token @p k, or
 *  null when @p k is not inside any call's parens. */
const CallSite *
enclosingCall(const std::vector<CallSite> &calls, std::size_t k)
{
    const CallSite *best = nullptr;
    for (const CallSite &cs : calls)
        if (cs.argsBegin <= k && k < cs.argsEnd &&
            (!best || cs.argsBegin > best->argsBegin))
            best = &cs;
    return best;
}

/** Argument index of token @p k inside @p cs (top-level commas). */
int
argIndexOf(const Tokens &toks, const CallSite &cs, std::size_t k)
{
    const auto args = splitArgs(toks, cs.argsBegin, cs.argsEnd);
    for (std::size_t a = 0; a < args.size(); ++a)
        if (args[a].first <= k && k < args[a].second)
            return int(a);
    return -1;
}

/** Does passing a value as argument @p k-at-token of call @p cs
 *  consume it? Unresolvable callees consume (conservative); a defined
 *  callee with a Task-typed, provably untouched parameter does not. */
bool
callConsumesArg(const Project &p, const Tokens &toks, const CallSite &cs,
                std::size_t k)
{
    if (cs.key.empty())
        return true;
    auto it = p.summaries.find(cs.key);
    if (it == p.summaries.end() || !it->second.defined)
        return true;
    const int arg = argIndexOf(toks, cs, k);
    if (arg < 0)
        return true;
    const FnSummary &s = it->second;
    if (s.taskParams.count(arg) == 0)
        return true; // parameter type unknown to the index
    return s.consumesTaskParam.count(arg) != 0;
}

/** Does the call named by token @p k return a Task? Only a name the
 *  Task index holds can. Where the call resolves to a class (through
 *  its receiver or its qualifier), that class's method of the name
 *  decides; a standard-library class lacking it (`std::string`) makes
 *  no Task call. Otherwise a name every declaration agrees on counts,
 *  and an ambiguous one (a Task in one class, not in another) stays
 *  silent. */
bool
callsTask(const Project &p, const std::vector<CallSite> &calls,
          const std::string &name, std::size_t k)
{
    const bool everyDecl = p.taskFns.count(name) != 0;
    if (!everyDecl && p.ambiguousTaskFns.count(name) == 0)
        return false;
    for (const CallSite &cs : calls) {
        if (cs.nameIdx != k)
            continue;
        const std::size_t sep = cs.key.rfind("::");
        if (sep == std::string::npos)
            return everyDecl;
        const std::string cls = cs.key.substr(0, sep);
        auto cit = p.types.methods.find(cls);
        if (cit != p.types.methods.end()) {
            auto mit = cit->second.find(name);
            if (mit != cit->second.end())
                return typeIsTask(p.types, mit->second);
        }
        // The class lacks the name. A standard-library one
        // (`std::string`) makes no Task call; any other may inherit it
        // (the index records no base classes) or be no class the index
        // knows (`auto`, a template parameter), so there a name every
        // declaration makes a Task still counts.
        return everyDecl && !isStdClass(cls);
    }
    return everyDecl;
}

/** Scan the statement (or statement fragment) [@p s, @p e), which
 *  starts at paren depth @p depth: a fragment that resumes an argument
 *  list after a lambda body or braced initializer starts inside it. */
void
scanStatement(const SourceFile &f, const FnDef &fn, std::size_t s,
              std::size_t e, int depth, const Project &p,
              const std::set<std::string> &shadowed,
              const std::vector<CallSite> &calls,
              std::vector<Finding> &out)
{
    const Tokens &toks = f.toks;

    bool consumedAll = false;
    for (std::size_t k = s; k < e; ++k) {
        const Token &t = toks[k];
        if (t.is("co_await") || t.is("co_return") || t.is("return") ||
            t.is("co_yield")) {
            consumedAll = true;
            break;
        }
    }
    if (consumedAll)
        return;

    std::size_t assignAt = std::string::npos;
    for (std::size_t k = s; k < e; ++k) {
        const Token &t = toks[k];
        if (t.is("(") || t.is("["))
            ++depth;
        else if (t.is(")") || t.is("]"))
            --depth;
        else if (t.is("=") && depth == 0 && assignAt == std::string::npos)
            assignAt = k;
        else if (t.ident() && k + 1 < e && toks[k + 1].is("(") &&
                 callsTask(p, calls, t.text, k)) {
            if (shadowed.count(t.text) != 0)
                continue; // rebound locally (a lambda), not the Task fn
            if (k > s && !mayPrecedeCall(toks[k - 1]))
                continue; // `Type name(args)`: declaration, not a call
            if (k > fn.bodyBegin && toks[k - 1].is(">"))
                continue; // `Foo<T> name(args)`: also a declaration
            if (f.allows(t.line, "dropped-task"))
                continue;
            if (depth > 0) {
                // Wrapped in another call: consumed only if the
                // receiving parameter consumes it.
                const CallSite *host = enclosingCall(calls, k);
                if (!host || callConsumesArg(p, toks, *host, k))
                    continue;
                out.push_back(
                    {"dropped-task", f.rel, t.line,
                     fn.qualName + "/" + t.text + "/passed",
                     "Task returned by '" + t.text + "()' is passed to '" +
                         host->callee + "()', which never awaits, "
                         "spawns, stores or drains that parameter — "
                         "the coroutine never runs"});
                continue;
            }
            if (assignAt != std::string::npos && assignAt < k) {
                // `lhs = f(...)`: find the stored name and look for any
                // later mention in the body.
                const Token &lhs = toks[assignAt - 1];
                if (!lhs.ident())
                    continue; // *p = / arr[i] = : escapes the analysis
                if (assignAt >= 2 && (toks[assignAt - 2].is(".") ||
                                      toks[assignAt - 2].is("->")))
                    continue; // member target: escapes
                if (identAppearsAfter(toks, e + 1, fn.bodyEnd, lhs.text))
                    continue;
                out.push_back(
                    {"dropped-task", f.rel, t.line,
                     fn.qualName + "/" + t.text + "/stored",
                     "Task returned by '" + t.text + "()' is stored in '" +
                         lhs.text + "' but '" + lhs.text +
                         "' is never awaited, started, spawned or "
                         "returned — the coroutine never runs"});
                continue;
            }
            out.push_back(
                {"dropped-task", f.rel, t.line,
                 fn.qualName + "/" + t.text,
                 "result of Task-returning '" + t.text +
                     "()' is discarded — the coroutine is lazy and will "
                     "never run; co_await it, spawn it, or return it"});
        }
    }
}

/** Container tracking: a local container-of-Task whose every mention
 *  is a populate-style member call never runs what it holds. */
void
scanContainers(const Project &p, const SourceFile &f, const FnDef &fn,
               const std::vector<CallSite> &calls,
               std::vector<Finding> &out)
{
    const Tokens &toks = f.toks;
    for (const Local &l : fn.locals) {
        if (l.name.empty() ||
            !typeIsTaskContainer(p.types, l.type))
            continue;
        if (f.allows(l.line, "dropped-task"))
            continue;

        bool populated = false;
        bool consumed = false;
        for (std::size_t k = fn.bodyBegin + 1;
             k < fn.bodyEnd && !consumed; ++k) {
            if (!toks[k].ident() || toks[k].text != l.name)
                continue;
            const Token &prev = toks[k - 1];
            if (prev.is(".") || prev.is("->") || prev.is("::"))
                continue; // someone else's member, same name
            // Declaration mention: `std::vector<Task<>> name` — the
            // token before is part of the type.
            if (prev.ident() || prev.is(">") || prev.is("&") ||
                prev.is("*"))
                continue;

            // Member call on the container.
            if (k + 2 < fn.bodyEnd &&
                (toks[k + 1].is(".") || toks[k + 1].is("->")) &&
                toks[k + 2].ident()) {
                if (isPopulateMethod(toks[k + 2].text))
                    populated = true;
                else
                    consumed = true;
                continue;
            }
            // Range-for drains it.
            if (prev.is(":")) {
                consumed = true;
                continue;
            }
            // Awaited / returned / moved-from in the same statement.
            {
                bool stmtConsumes = false;
                for (std::size_t q = k; q > fn.bodyBegin; --q) {
                    const Token &b = toks[q - 1];
                    if (b.is(";") || b.is("{") || b.is("}"))
                        break;
                    if (b.is("co_await") || b.is("return") ||
                        b.is("co_return") || b.is("co_yield") ||
                        b.is("=")) {
                        stmtConsumes = true;
                        break;
                    }
                }
                if (stmtConsumes) {
                    consumed = true;
                    continue;
                }
            }
            // Passed into a call: consult the callee's summary.
            if (const CallSite *host = enclosingCall(calls, k)) {
                if (callConsumesArg(p, toks, *host, k))
                    consumed = true;
                continue; // non-consuming pass: keep scanning
            }
            consumed = true; // any other mention: assume it escapes
        }

        if (populated && !consumed)
            out.push_back(
                {"dropped-task", f.rel, l.line,
                 fn.qualName + "/container/" + l.name,
                 "container '" + l.name + "' (" + l.type +
                     ") is filled with Tasks but never drained — "
                     "nothing in " + fn.qualName +
                     " awaits, joins or iterates it, so the stored "
                     "coroutines never run"});
    }
}

} // namespace

void
ruleDroppedTask(const Project &p, std::vector<Finding> &out)
{
    for (const SourceFile &f : p.files) {
        for (const FnDef &fn : f.fns) {
            // Names rebound inside this body (`auto drain = [...]`)
            // shadow any same-named Task function in the index.
            std::set<std::string> shadowed;
            for (std::size_t k = fn.bodyBegin + 1;
                 k + 3 < fn.bodyEnd; ++k) {
                if (f.toks[k].is("auto") && f.toks[k + 1].ident() &&
                    f.toks[k + 2].is("=") && f.toks[k + 3].is("["))
                    shadowed.insert(f.toks[k + 1].text);
            }

            const std::vector<CallSite> calls = callSites(p, f, fn);

            // Statements split at top-level `;` and at every brace. A
            // brace inside an argument list (a lambda body, a braced
            // initializer) starts its statements at depth 0, and its
            // close resumes the argument list at the depth kept in
            // `outer`.
            std::size_t stmt = fn.bodyBegin + 1;
            int paren = 0, stmtParen = 0;
            std::vector<int> outer;
            for (std::size_t k = stmt; k < fn.bodyEnd; ++k) {
                const Token &t = f.toks[k];
                if (t.is("(") || t.is("["))
                    ++paren;
                else if (t.is(")") || t.is("]"))
                    --paren;
                else if ((t.is(";") && paren == 0) || t.is("{") ||
                         t.is("}")) {
                    if (k > stmt)
                        scanStatement(f, fn, stmt, k, stmtParen, p,
                                      shadowed, calls, out);
                    stmt = k + 1;
                    if (t.is("{")) {
                        outer.push_back(paren);
                        paren = 0;
                    } else if (t.is("}")) {
                        paren = outer.empty() ? 0 : outer.back();
                        if (!outer.empty())
                            outer.pop_back();
                    }
                    stmtParen = paren;
                }
            }

            scanContainers(p, f, fn, calls, out);
        }
    }
}

} // namespace shrimp::analyze
