/**
 * @file
 * hygiene: header and sim-core conventions the compiler does not
 * enforce.
 *
 *   - Every scanned header opens with an include guard named after its
 *     path (sim/task.hh -> SHRIMP_SIM_TASK_HH, tests/test_util.hh ->
 *     SHRIMP_TESTS_TEST_UTIL_HH), so a moved or copied header cannot
 *     share a guard with another one.
 *   - A header holds no `using namespace` outside function bodies and
 *     no `main()`: both leak into every includer.
 *   - No `std::function` in src/sim: the event core is the innermost
 *     loop of every simulation, and a type-erased callable there costs
 *     a heap allocation and an indirect call per event. Use a template
 *     parameter, the pooled inline storage or a function pointer.
 *   - sim::Task stays `[[nodiscard]]`: a discarded Task is a coroutine
 *     that never runs, and the attribute makes the bare call a compile
 *     error under SHRIMP_WERROR, including through the `auto &`
 *     receivers dropped-task cannot type.
 */

#include <cctype>
#include <cstddef>

#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

/** "SHRIMP_" + @p rel upper-cased, with `/` and `.` as `_`. */
std::string
guardFor(const std::string &rel)
{
    std::string g = "SHRIMP_";
    for (const char c : rel)
        g += c == '/' || c == '.'
                 ? '_'
                 : char(std::toupper(static_cast<unsigned char>(c)));
    return g;
}

bool
insideBody(const SourceFile &f, std::size_t k)
{
    for (const FnDef &fn : f.fns)
        if (fn.bodyBegin < k && k < fn.bodyEnd)
            return true;
    return false;
}

/** Does the head of the class whose body opens at @p body (the tokens
 *  back to its `class`/`struct` keyword) carry `[[nodiscard]]`? */
bool
headIsNodiscard(const Tokens &toks, std::size_t body)
{
    for (std::size_t k = body;
         k-- > 0 && !toks[k].is("class") && !toks[k].is("struct");)
        if (toks[k].is("nodiscard"))
            return true;
    return false;
}

} // namespace

void
ruleHygiene(const Project &p, std::vector<Finding> &out)
{
    for (const SourceFile &f : p.files) {
        const Tokens &toks = f.toks;
        auto report = [&](int line, const std::string &fp,
                          const std::string &msg) {
            if (!f.allows(line, "hygiene"))
                out.push_back({"hygiene", f.rel, line, fp, msg});
        };

        if (f.isHeader) {
            const std::string want = guardFor(f.rel);
            if (f.guardIfndef.empty())
                report(1, "guard/" + want,
                       "missing include guard (#ifndef/#define " + want +
                           ")");
            else if (f.guardIfndef != want || f.guardDefine != want)
                report(f.guardLine, "guard/" + want,
                       "include guard '" + f.guardIfndef +
                           "' does not match the path-derived name '" +
                           want + "'");
        }

        for (std::size_t k = 0; k + 2 < toks.size(); ++k) {
            const Token &t = toks[k];
            if (f.isHeader && t.is("using") &&
                toks[k + 1].is("namespace") && !insideBody(f, k)) {
                std::string ns;
                for (std::size_t q = k + 2;
                     q < toks.size() && !toks[q].is(";"); ++q)
                    ns += toks[q].text;
                report(t.line, "using-namespace/" + ns,
                       "`using namespace " + ns +
                           "` in a header pollutes every includer");
            } else if (f.isHeader && t.is("int") &&
                       toks[k + 1].is("main") && toks[k + 2].is("(")) {
                report(t.line, "main", "main() declared in a header");
            } else if (f.dir == "sim" && t.is("std") &&
                       toks[k + 1].is("::") &&
                       toks[k + 2].is("function")) {
                report(t.line, "std-function",
                       "std::function in the sim core: a type-erased "
                       "callable here costs a heap allocation and an "
                       "indirect call on the hottest loop; use a "
                       "template parameter or the pooled inline storage "
                       "instead");
            }
        }

        if (f.dir == "sim")
            for (const ClassDef &c : f.classes)
                if (c.name == "Task" && !headIsNodiscard(toks, c.bodyBegin))
                    report(c.line, "nodiscard/Task",
                           "Task must stay [[nodiscard]]: a discarded "
                           "Task is a coroutine that silently never runs");
    }
}

} // namespace shrimp::analyze
