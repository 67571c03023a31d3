#include "callgraph.hh"

#include <cstddef>

#include "parse.hh"
#include "types.hh"

namespace shrimp::analyze
{

namespace
{

bool
isCallableName(const Token &t)
{
    static const std::set<std::string> kw = {
        "if", "for", "while", "switch", "catch", "return", "sizeof",
        "alignof", "new", "delete", "static_assert", "decltype",
        "co_await", "co_return", "co_yield", "throw",
        "void", "int", "char", "bool", "float", "double", "long",
        "short", "unsigned", "signed", "auto", "requires", "alignas",
        "defined", "assert", "noexcept",
    };
    return t.ident() && kw.count(t.text) == 0;
}

/** The declared type of plain name @p name in the scope of @p fn:
 *  locals first, then parameters, then fields of the enclosing class
 *  (and, as a last resort, any class the file declares — single-file
 *  fixtures have no enclosing qualName). "" when unknown. */
std::string
nameType(const Project &p, const SourceFile &f, const FnDef &fn,
         const std::string &name)
{
    for (const Local &l : fn.locals)
        if (l.name == name)
            return l.type;
    for (const Param &pa : fn.params)
        if (pa.name == name)
            return pa.type;
    if (!fn.className.empty()) {
        auto cit = p.types.fields.find(fn.className);
        if (cit != p.types.fields.end()) {
            auto fit = cit->second.find(name);
            if (fit != cit->second.end())
                return fit->second;
        }
    }
    (void)f;
    return "";
}

} // namespace

std::string
fnKey(const FnDef &fn)
{
    return fn.className.empty() ? fn.name
                                : fn.className + "::" + fn.name;
}

std::vector<std::pair<std::size_t, std::size_t>>
splitArgs(const Tokens &toks, std::size_t argsBegin, std::size_t argsEnd)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    if (argsBegin >= argsEnd)
        return out;
    int depth = 0;
    std::size_t start = argsBegin;
    for (std::size_t k = argsBegin; k < argsEnd; ++k) {
        const Token &t = toks[k];
        if (t.is("(") || t.is("[") || t.is("{"))
            ++depth;
        else if (t.is(")") || t.is("]") || t.is("}"))
            --depth;
        else if (t.is(",") && depth == 0) {
            out.emplace_back(start, k);
            start = k + 1;
        }
    }
    out.emplace_back(start, argsEnd);
    return out;
}

namespace
{

/** Index of the `(` matching the `)` at @p close; 0 if unbalanced. */
std::size_t
matchingOpen(const Tokens &toks, std::size_t close)
{
    int depth = 0;
    for (std::size_t q = close + 1; q-- > 0;) {
        if (toks[q].is(")"))
            ++depth;
        else if (toks[q].is("(") && --depth == 0)
            return q;
    }
    return 0;
}

/** Does the `)` at @p close end an `if`/`while`/`for`/`switch` head? */
bool
endsControlHead(const Tokens &toks, std::size_t close)
{
    const std::size_t open = matchingOpen(toks, close);
    if (open == 0)
        return false;
    const Token &kw = toks[open - 1];
    return kw.is("if") || kw.is("while") || kw.is("for") ||
           kw.is("switch");
}

/** Resolve the class of the receiver chain ending just before token
 *  @p dotIdx (a `.`/`->`/`::`); "" when unknown. */
std::string
resolveReceiver(const Project &p, const SourceFile &f, const FnDef &fn,
                std::size_t dotIdx)
{
    const Tokens &toks = f.toks;

    // Collect the chain segments right-to-left: ident or ident() hops
    // separated by `.`/`->`. A `)` that closes a call hop is walked
    // through; anything else ends the chain.
    struct Seg
    {
        std::string name;
        bool isCall = false;
    };
    std::vector<Seg> segs;
    std::size_t k = dotIdx; // token index of the `.`/`->`
    while (k > 0) {
        std::size_t end = k; // one past segment
        bool isCall = false;
        if (toks[end - 1].is(")")) {
            // Walk back over the balanced parens of a call hop.
            const std::size_t q = matchingOpen(toks, end - 1);
            if (q == 0 || !toks[q - 1].ident())
                break;
            segs.push_back({toks[q - 1].text, true});
            end = q - 1;
            isCall = true;
        } else if (toks[end - 1].ident()) {
            segs.push_back({toks[end - 1].text, false});
            end = end - 1;
        } else {
            break;
        }
        (void)isCall;
        if (end >= 1 && (toks[end - 1].is(".") || toks[end - 1].is("->"))) {
            k = end - 1;
            continue;
        }
        // Chain starts here; make sure it is not `foo().bar` glued to
        // a longer expression we cannot resolve anyway. A `)` that ends
        // a control head starts a statement: `while (c) s.append(b);`.
        if (end >= 1 &&
            (toks[end - 1].is("]") ||
             (toks[end - 1].is(")") && !endsControlHead(toks, end - 1))))
            segs.clear();
        break;
    }
    if (segs.empty())
        return "";

    // Resolve left-to-right.
    std::string cls;
    for (std::size_t i = segs.size(); i-- > 0;) {
        const Seg &s = segs[i];
        if (cls.empty()) {
            if (s.name == "this") {
                cls = fn.className;
                continue;
            }
            std::string type = nameType(p, f, fn, s.name);
            if (type.empty() && s.isCall && !fn.className.empty()) {
                // `method().x`: the first hop is a call on *this.
                auto cit = p.types.methods.find(fn.className);
                if (cit != p.types.methods.end()) {
                    auto mit = cit->second.find(s.name);
                    if (mit != cit->second.end())
                        type = mit->second;
                }
            }
            if (type.empty())
                return "";
            cls = typeClassName(p.types, type);
            if (cls.empty())
                return "";
            continue;
        }
        // A hop on a standard-library class stays on it: no project
        // class is reached through its members (`s.append(a).append(b)`).
        if (isStdClass(cls))
            continue;
        std::string type;
        if (s.isCall) {
            auto cit = p.types.methods.find(cls);
            if (cit == p.types.methods.end())
                return "";
            auto mit = cit->second.find(s.name);
            if (mit == cit->second.end())
                return "";
            type = mit->second;
        } else {
            auto cit = p.types.fields.find(cls);
            if (cit == p.types.fields.end())
                return "";
            auto fit = cit->second.find(s.name);
            if (fit == cit->second.end())
                return "";
            type = fit->second;
        }
        cls = typeClassName(p.types, type);
        if (cls.empty())
            return "";
    }
    return cls;
}

} // namespace

std::vector<CallSite>
callSites(const Project &p, const SourceFile &f, const FnDef &fn)
{
    const Tokens &toks = f.toks;
    std::vector<CallSite> out;

    // Statement boundaries, as in the statement-level rules: `;` at
    // paren depth 0, `{`, `}`.
    std::size_t stmt = fn.bodyBegin + 1;
    int paren = 0;
    std::size_t stmtEnd = stmt;
    bool stmtRet = false;
    auto refreshStmt = [&](std::size_t k) {
        if (k < stmtEnd)
            return;
        std::size_t e = k;
        int depth = 0;
        for (; e < fn.bodyEnd; ++e) {
            const Token &t = toks[e];
            if (t.is("(") || t.is("["))
                ++depth;
            else if (t.is(")") || t.is("]"))
                --depth;
            else if ((t.is(";") && depth <= 0) || t.is("{") || t.is("}"))
                break;
        }
        stmtRet = false;
        for (std::size_t q = stmt; q < e; ++q) {
            const Token &tq = toks[q];
            if (tq.is("return") || tq.is("co_return"))
                stmtRet = true;
        }
        stmtEnd = e + 1;
    };

    for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd; ++k) {
        const Token &t = toks[k];
        if (t.is("(") || t.is("[")) {
            ++paren;
            continue;
        }
        if (t.is(")") || t.is("]")) {
            --paren;
            continue;
        }
        if (t.is("{") || t.is("}")) {
            // Inside an open argument list a brace opens a lambda body
            // or a braced initializer, not a new statement.
            if (paren > 0) {
                paren += t.is("{") ? 1 : -1;
                continue;
            }
            stmt = k + 1;
            stmtEnd = stmt;
            paren = 0; // resync if the stream was unbalanced
            continue;
        }
        if (t.is(";") && paren == 0) {
            stmt = k + 1;
            stmtEnd = stmt;
            continue;
        }
        if (!isCallableName(t) || k + 1 >= fn.bodyEnd ||
            !toks[k + 1].is("("))
            continue;

        refreshStmt(k);

        CallSite cs;
        cs.callee = t.text;
        cs.line = t.line;
        cs.nameIdx = k;
        cs.argsBegin = k + 2;
        cs.argsEnd = skipBalanced(toks, k + 1) - 1;
        cs.stmtReturns = stmtRet;

        // Receiver and key.
        if (k >= 1 && (toks[k - 1].is(".") || toks[k - 1].is("->"))) {
            const std::string cls = resolveReceiver(p, f, fn, k - 1);
            if (!cls.empty())
                cs.key = cls + "::" + cs.callee;
        } else if (k >= 2 && toks[k - 1].is("::") && toks[k - 2].ident()) {
            const std::string &cls = toks[k - 2].text;
            if (p.types.methods.count(cls) != 0 &&
                p.types.methods.at(cls).count(cs.callee) != 0)
                cs.key = cls + "::" + cs.callee;
        } else {
            // Unqualified: enclosing class first, then free functions.
            if (!fn.className.empty()) {
                auto cit = p.types.methods.find(fn.className);
                if (cit != p.types.methods.end() &&
                    cit->second.count(cs.callee) != 0)
                    cs.key = fn.className + "::" + cs.callee;
            }
            if (cs.key.empty() &&
                (p.types.freeFns.count(cs.callee) != 0 ||
                 p.summaries.count(cs.callee) != 0))
                cs.key = cs.callee;
        }

        out.push_back(cs);
        ++paren; // account for the call's own `(` which we now step over
        ++k;     // skip the `(` token itself
    }
    return out;
}

} // namespace shrimp::analyze
