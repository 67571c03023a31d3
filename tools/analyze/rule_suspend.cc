/**
 * @file
 * suspend-under-exclusion: a `co_await` between `<lock>.acquire()` and
 * `<lock>.release()` in the same function body. Between those two
 * calls the code owns a mutual-exclusion resource; suspending there
 * lets arbitrarily much simulated activity interleave while the
 * resource is held, which reorders occupancy accounting relative to the
 * modeled hardware.
 *
 * The scan is linear over the body (path-insensitive): acquire adds
 * the awaited lock expression to the held set, release removes it, and
 * any other co_await while the set is non-empty is a finding. A site
 * where the suspension is itself the modeled occupancy can carry a
 * `// analyze: allow(suspend-under-exclusion)` annotation; the tree has
 * none, since the CPU and the buses hold their ledgers through
 * frame-free awaiters (sim::Hold) rather than acquire/release pairs.
 */

#include <algorithm>
#include <cstddef>

#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

/** The identifier chain (a, a.b, a->b, A::a) ending just before @p i,
 *  rendered as a normalized string; empty if none. */
std::string
chainEndingAt(const Tokens &toks, std::size_t i)
{
    std::string s;
    std::size_t k = i;
    while (k > 0) {
        const Token &t = toks[k - 1];
        if (t.is("co_await") || t.is("return") || t.is("co_return"))
            break; // keywords are never part of the object expression
        if (t.ident() || t.is(".") || t.is("->") || t.is("::")) {
            s = t.text + s;
            --k;
            continue;
        }
        break;
    }
    return s;
}

} // namespace

void
ruleSuspendUnderExclusion(const Project &p, std::vector<Finding> &out)
{
    for (const SourceFile &f : p.files) {
        for (const FnDef &fn : f.fns) {
            std::vector<std::string> held;
            for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd; ++k) {
                const Token &t = f.toks[k];

                if (t.ident() && t.text == "acquire" && k >= 2 &&
                    f.toks[k + 1].is("(") &&
                    (f.toks[k - 1].is(".") || f.toks[k - 1].is("->"))) {
                    // `co_await <expr>.acquire()` — find the co_await
                    // that governs it (must be in the same statement).
                    std::string lock = chainEndingAt(f.toks, k - 1);
                    if (!lock.empty() && lock.back() == '.')
                        lock.pop_back();
                    if (lock.size() >= 2 &&
                        lock.compare(lock.size() - 2, 2, "->") == 0)
                        lock.resize(lock.size() - 2);
                    held.push_back(lock);
                    continue;
                }

                if (t.ident() && t.text == "release" && k >= 2 &&
                    f.toks[k + 1].is("(") &&
                    (f.toks[k - 1].is(".") || f.toks[k - 1].is("->"))) {
                    std::string lock = chainEndingAt(f.toks, k - 1);
                    if (!lock.empty() && lock.back() == '.')
                        lock.pop_back();
                    if (lock.size() >= 2 &&
                        lock.compare(lock.size() - 2, 2, "->") == 0)
                        lock.resize(lock.size() - 2);
                    auto it = std::find(held.begin(), held.end(), lock);
                    if (it != held.end())
                        held.erase(it);
                    continue;
                }

                if (t.is("co_await") && !held.empty()) {
                    // The acquire's own co_await precedes the acquire()
                    // token, so it can never be misflagged; anything
                    // else awaited while a lock is held is suspect.
                    bool isAcquire = false;
                    for (std::size_t q = k + 1;
                         q < fn.bodyEnd && q < k + 12; ++q) {
                        if (f.toks[q].is(";") || f.toks[q].is("{"))
                            break;
                        if (f.toks[q].ident() &&
                            f.toks[q].text == "acquire" &&
                            f.toks[q + 1].is("(")) {
                            isAcquire = true;
                            break;
                        }
                    }
                    if (isAcquire)
                        continue;
                    if (f.allows(t.line, "suspend-under-exclusion"))
                        continue;
                    out.push_back(
                        {"suspend-under-exclusion", f.rel, t.line,
                         fn.qualName + "/" + held.back(),
                         "co_await while holding '" + held.back() +
                             "' (acquired earlier in " + fn.qualName +
                             ", not yet released): the suspension lets "
                             "other tasks interleave inside the "
                             "critical section"});
                }
            }
        }
    }
}

} // namespace shrimp::analyze
