/**
 * @file
 * shared-mutable-static: a token scan for namespace-, class- and
 * function-scope mutable `static` data in the layered src directories.
 * Tests and benches build many Machines in one process, so such
 * storage silently couples runs that are meant to be independent.
 * A deliberate process-wide singleton is allowlisted with
 * `analyze: allow(shared-mutable-static) — reason`.
 *
 * `(` before the declaration's terminator means a function (or a
 * paren-initialized static, a documented false negative); any
 * const-ish keyword in the head means immutable storage.
 */

#include <set>

#include "callgraph.hh"
#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

const std::set<std::string> constishKeywords = {
    "const", "constexpr", "consteval", "constinit", "thread_local",
};

/** Keywords that disqualify the token after `static` from starting a
 *  data declaration we want to report. */
const std::set<std::string> staticDeclStoppers = {
    "struct", "class", "union", "enum", "using", "typedef", "void",
    "friend", "operator", "template", "inline", "assert",
};

/** Token index of the `;`/`=`/`{` ending the declaration that starts
 *  after the `static` at @p k, or 0 when it is not mutable data. */
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

} // namespace

void
ruleSharedMutableStatic(const Project &p, std::vector<Finding> &out)
{
    for (const SourceFile &f : p.files) {
        if (layerOf(f.dir) < 0)
            continue;
        const Tokens &toks = f.toks;
        for (std::size_t k = 0; k < toks.size(); ++k) {
            if (!toks[k].ident() || toks[k].text != "static")
                continue;
            if (k + 1 < toks.size() && toks[k + 1].ident() &&
                staticDeclStoppers.count(toks[k + 1].text) != 0)
                continue;
            const std::size_t declEnd = mutableDeclEnd(toks, k);
            if (declEnd < k + 3)
                continue;
            const Token &name = toks[declEnd - 1];
            if (!name.ident() || staticDeclStoppers.count(name.text) != 0)
                continue;
            const int line = toks[k].line;
            if (f.allows(line, "shared-mutable-static"))
                continue;

            const std::string scope = scopeOf(f, k);
            out.push_back(
                {"shared-mutable-static", f.rel, line,
                 "static/" + (scope.empty() ? std::string("ns") : scope) +
                     "/" + name.text,
                 "mutable static '" + name.text + "'" +
                     (scope.empty() ? std::string() : " in " + scope) +
                     ": every Machine in the process shares this "
                     "storage; annotate `analyze: "
                     "allow(shared-mutable-static) — reason` if it is a "
                     "deliberate process-wide singleton, or move it into "
                     "per-Machine state"});
        }
    }
}

} // namespace shrimp::analyze
