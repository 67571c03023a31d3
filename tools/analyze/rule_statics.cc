/**
 * @file
 * shared-mutable-static: a token scan for namespace-, class- and
 * function-scope mutable `static` data in the layered src directories,
 * and for mutable data declared directly inside an anonymous namespace
 * (the same internal linkage and process lifetime, without the
 * keyword). Tests and benches build many Machines in one process, so
 * such storage silently couples runs that are meant to be independent.
 * A deliberate process-wide singleton is allowlisted with
 * `analyze: allow(shared-mutable-static) — reason`.
 *
 * `(` before the declaration's terminator means a function (or a
 * paren-initialized static, a documented false negative); any
 * const-ish keyword in the head means immutable storage.
 */

#include <set>

#include "callgraph.hh"
#include "parse.hh"
#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

const std::set<std::string> constishKeywords = {
    "const", "constexpr", "consteval", "constinit", "thread_local",
};

/** Keywords that disqualify the token after `static`, or the first
 *  token of a declaration in an anonymous namespace, from starting a
 *  data declaration we want to report. */
const std::set<std::string> staticDeclStoppers = {
    "struct", "class", "union", "enum", "using", "typedef", "void",
    "friend", "operator", "template", "inline", "assert", "namespace",
    "extern",
};

/** Token index of the `;`/`=`/`{` ending the declaration that starts
 *  after token @p k (a `static`, or what precedes a declaration in an
 *  anonymous namespace), or 0 when it is not mutable data. */
std::size_t
mutableDeclEnd(const Tokens &toks, std::size_t k)
{
    int angle = 0;
    for (std::size_t q = k + 1; q < toks.size() && q < k + 80; ++q) {
        const Token &t = toks[q];
        if (t.ident() && constishKeywords.count(t.text) != 0)
            return 0;
        if (t.is("<")) {
            ++angle;
        } else if (t.is(">")) {
            --angle;
        } else if (angle <= 0) {
            if (t.is("("))
                return 0;
            if (t.is(";") || t.is("=") || t.is("{"))
                return q;
        }
    }
    return 0;
}

/** Token indices where a declaration starts directly inside an
 *  anonymous namespace: after its `{`, a `;` or a skipped `{...}`. */
std::vector<std::size_t>
anonymousNamespaceDecls(const Tokens &toks)
{
    std::vector<std::size_t> starts;
    for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
        if (!toks[k].is("namespace") || !toks[k + 1].is("{"))
            continue;
        const std::size_t close = skipBalanced(toks, k + 1) - 1;
        bool atStart = true;
        for (std::size_t q = k + 2; q < close; ++q) {
            const Token &t = toks[q];
            if (atStart && t.ident() && !t.is("static"))
                starts.push_back(q); // the static scan has those
            atStart = t.is(";") || t.is("{");
            if (t.is("{") || t.is("(") || t.is("["))
                q = skipBalanced(toks, q) - 1;
        }
    }
    return starts;
}

/** The name of the declaration whose head starts at @p head and ends
 *  at @p declEnd (mutableDeclEnd's result) when it declares mutable
 *  data with a type and a name, else null. */
const Token *
mutableName(const Tokens &toks, std::size_t head, std::size_t declEnd)
{
    if (declEnd < head + 2 || staticDeclStoppers.count(toks[head].text) != 0)
        return nullptr;
    const Token &name = toks[declEnd - 1];
    if (!name.ident() || staticDeclStoppers.count(name.text) != 0)
        return nullptr;
    return &name;
}

/** Enclosing function key, else innermost enclosing class, else "". */
std::string
scopeOf(const SourceFile &f, std::size_t k)
{
    for (const FnDef &fn : f.fns)
        if (k > fn.bodyBegin && k < fn.bodyEnd)
            return fnKey(fn);
    std::string scope;
    std::size_t best = 0;
    for (const ClassDef &cd : f.classes)
        if (k > cd.bodyBegin && k < cd.bodyEnd && cd.bodyBegin >= best) {
            best = cd.bodyBegin;
            scope = cd.name;
        }
    return scope;
}

const std::string sharedStorage =
    ": every Machine in the process shares this storage; annotate "
    "`analyze: allow(shared-mutable-static) — reason` if it is a "
    "deliberate process-wide singleton, or move it into per-Machine "
    "state";

} // namespace

void
ruleSharedMutableStatic(const Project &p, std::vector<Finding> &out)
{
    const std::string rule = "shared-mutable-static";
    for (const SourceFile &f : p.files) {
        if (layerOf(f.dir) < 0)
            continue;
        const Tokens &toks = f.toks;
        for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
            if (!toks[k].ident() || toks[k].text != "static")
                continue;
            const Token *name =
                mutableName(toks, k + 1, mutableDeclEnd(toks, k));
            const int line = toks[k].line;
            if (!name || f.allows(line, rule))
                continue;
            const std::string scope = scopeOf(f, k);
            out.push_back(
                {rule, f.rel, line,
                 "static/" + (scope.empty() ? std::string("ns") : scope) +
                     "/" + name->text,
                 "mutable static '" + name->text + "'" +
                     (scope.empty() ? std::string() : " in " + scope) +
                     sharedStorage});
        }
        for (std::size_t head : anonymousNamespaceDecls(toks)) {
            const Token *name =
                mutableName(toks, head, mutableDeclEnd(toks, head - 1));
            const int line = toks[head].line;
            if (!name || f.allows(line, rule))
                continue;
            out.push_back({rule, f.rel, line, "anon/" + name->text,
                           "mutable '" + name->text +
                               "' in an anonymous namespace" +
                               sharedStorage});
        }
    }
}

} // namespace shrimp::analyze
