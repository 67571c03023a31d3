/**
 * @file
 * determinism: the simulator library (every layered src dir) must
 * behave identically run-to-run — the figure benches pin trace hashes,
 * and the race detector's reports are diffed in tests. Two things
 * break that silently:
 *
 *   - wall-clock / PRNG sources (dataflow.hh's list, which also feeds
 *     determinism-taint), and
 *   - *iterating* a pointer-keyed container: iteration order follows
 *     host addresses (ASLR), so anything derived from it — report
 *     order, destruction order, map-to-vector copies — differs across
 *     runs. Lookups and erases are fine; range-for / .begin() are not.
 *
 * Pointer-keyed names are collected from declarations in every
 * in-scope file (members and locals alike) and propagated through
 * `auto copy = name;`.
 */

#include <cstddef>
#include <set>

#include "dataflow.hh"
#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

const std::set<std::string> assocContainers = {
    "unordered_map", "unordered_set", "map", "set", "multimap",
    "multiset", "unordered_multimap", "unordered_multiset",
};

/** Is the first template argument of the list opening at @p lt (the
 *  `<`) a pointer type? @p close receives one past the matching `>`. */
bool
firstArgIsPointer(const Tokens &toks, std::size_t lt, std::size_t &close)
{
    int depth = 0;
    bool ptr = false;
    bool inFirst = true;
    for (std::size_t k = lt; k < toks.size() && k < lt + 200; ++k) {
        const Token &t = toks[k];
        if (t.is("<"))
            ++depth;
        else if (t.is(">")) {
            if (--depth == 0) {
                close = k + 1;
                return ptr;
            }
        } else if (t.is(",") && depth == 1)
            inFirst = false;
        else if (t.is("*") && depth == 1 && inFirst)
            ptr = true;
        else if (t.is(";") || t.is("{"))
            break; // stray comparison, not a template list
    }
    close = lt + 1;
    return false;
}

} // namespace

void
ruleDeterminism(const Project &p, std::vector<Finding> &out)
{
    // Pass 1: names declared as pointer-keyed associative containers,
    // collected across *all* in-scope files — a member declared in
    // simulator.hh is iterated from event_queue.cc — plus per-file
    // `auto copy = name;` propagation (two sweeps so order of
    // appearance doesn't matter).
    std::set<std::string> ptrKeyed;
    for (const SourceFile &f : p.files) {
        if (layerOf(f.dir) < 0)
            continue;
        const Tokens &toks = f.toks;
        for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
            if (!toks[k].ident() || !toks[k + 1].is("<") ||
                assocContainers.count(toks[k].text) == 0)
                continue;
            std::size_t close = 0;
            if (!firstArgIsPointer(toks, k + 1, close))
                continue;
            std::size_t v = close;
            while (v < toks.size() &&
                   (toks[v].is("&") || toks[v].is("*") ||
                    toks[v].is("const")))
                ++v;
            if (v < toks.size() && toks[v].ident())
                ptrKeyed.insert(toks[v].text);
        }
    }
    for (const SourceFile &f : p.files) {
        if (layerOf(f.dir) < 0)
            continue;
        const Tokens &toks = f.toks;
        for (int sweep = 0; sweep < 2; ++sweep) {
            for (std::size_t k = 0; k + 3 < toks.size(); ++k) {
                if (toks[k].is("auto")) {
                    std::size_t v = k + 1;
                    while (v < toks.size() &&
                           (toks[v].is("&") || toks[v].is("const")))
                        ++v;
                    if (toks[v].ident() && toks[v + 1].is("=") &&
                        toks[v + 2].ident() && toks[v + 3].is(";") &&
                        ptrKeyed.count(toks[v + 2].text) != 0)
                        ptrKeyed.insert(toks[v].text);
                }
            }
        }
    }

    // Pass 2: findings.
    for (const SourceFile &f : p.files) {
        if (layerOf(f.dir) < 0)
            continue;
        const Tokens &toks = f.toks;
        for (std::size_t k = 0; k < toks.size(); ++k) {
            const Token &t = toks[k];
            if (!t.ident())
                continue;

            if (isNondetSource(toks, k)) {
                if (!f.allows(t.line, "determinism"))
                    out.push_back(
                        {"determinism", f.rel, t.line, "banned/" + t.text,
                         "'" + t.text + "' in " + f.dir +
                             "/: simulations must be driven by Tick "
                             "time and seeded state only"});
                continue;
            }

            // Range-for over a pointer-keyed container.
            if (t.is("for") && k + 1 < toks.size() && toks[k + 1].is("(")) {
                int depth = 0;
                std::size_t colon = 0;
                std::size_t end = k + 1;
                for (std::size_t q = k + 1; q < toks.size(); ++q) {
                    if (toks[q].is("("))
                        ++depth;
                    else if (toks[q].is(")") && --depth == 0) {
                        end = q;
                        break;
                    } else if (toks[q].is(":") && depth == 1 && !colon)
                        colon = q;
                }
                if (colon) {
                    for (std::size_t q = colon + 1; q < end; ++q) {
                        if (toks[q].ident() &&
                            ptrKeyed.count(toks[q].text) != 0 &&
                            !f.allows(toks[q].line, "determinism")) {
                            out.push_back(
                                {"determinism", f.rel, toks[q].line,
                                 "ptr-iter/" + toks[q].text,
                                 "iterating pointer-keyed container '" +
                                     toks[q].text +
                                     "': order follows host addresses "
                                     "and differs across runs"});
                            break;
                        }
                    }
                }
                continue;
            }

            // name.begin() / name.cbegin() on a pointer-keyed container.
            if (ptrKeyed.count(t.text) != 0 && k + 3 < toks.size() &&
                (toks[k + 1].is(".") || toks[k + 1].is("->")) &&
                (toks[k + 2].text == "begin" ||
                 toks[k + 2].text == "cbegin") &&
                toks[k + 3].is("(") &&
                !f.allows(t.line, "determinism")) {
                out.push_back(
                    {"determinism", f.rel, t.line,
                     "ptr-iter/" + t.text,
                     "iterator over pointer-keyed container '" + t.text +
                         "': order follows host addresses and differs "
                         "across runs"});
            }
        }
    }
}

} // namespace shrimp::analyze
