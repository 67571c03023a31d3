/**
 * @file
 * deadlock: whole-program lock analysis over the resolved lock
 * identities (dataflow.hh) and interprocedural summaries. Three
 * shapes, all fatal at simulation time rather than merely reordering:
 *
 *   - lock-order cycle: some function acquires A then B (directly or
 *     by calling into an acquirer) while another acquires B then A —
 *     two tasks interleaving at the co_await inside acquire() can each
 *     hold one and wait forever for the other. Reported at every edge
 *     that participates in a cycle, so both halves show up.
 *     [fingerprint: order/A->B]
 *   - re-acquire: acquiring a lock the function (or a transitive
 *     caller in the same body walk) already holds — an acquire()-style
 *     lock is not reentrant, so the second acquire() never
 *     completes. Includes the interprocedural form where the nested
 *     acquire happens inside an awaited callee.
 *     [fingerprint: reacquire/Fn/lock]
 *   - suspend-while-holding, interprocedural: a co_await while a lock
 *     acquired by an *earlier callee* (a lock()-style helper whose
 *     summary acquires but never releases) is still held. The
 *     same-body form is suspend-under-exclusion's job; this rule only
 *     reports locks the body itself never visibly acquired.
 *     [fingerprint: suspend/Fn/lock]
 *
 * The walk is linear and path-insensitive like the other statement
 * rules: held-set updated in token order, callee effects applied at
 * call sites that actually execute (awaited, or the callee never
 * suspends).
 */

#include <algorithm>
#include <cstddef>
#include <map>

#include "callgraph.hh"
#include "dataflow.hh"
#include "rules.hh"

namespace shrimp::analyze
{

namespace
{

/** One lock the body currently holds, with how it got there. */
struct Held
{
    std::string id;
    bool viaCallee = false; //!< acquired inside a callee, not this body
};

struct EdgeSite
{
    std::string file;
    int line = 0;
    std::string fn;
};

} // namespace

void
ruleDeadlock(const Project &p, std::vector<Finding> &out)
{
    // first-seen site per ordered edge A->B ("A holds while B acquired")
    std::map<std::pair<std::string, std::string>, EdgeSite> edges;

    for (const SourceFile &f : p.files) {
        for (const FnDef &fn : f.fns) {
            const std::vector<LockOp> ops = lockOps(p, f, fn);
            const std::vector<CallSite> calls = callSites(p, f, fn);

            // Merge lock ops and call sites into token order.
            struct Ev
            {
                std::size_t tok;
                const LockOp *op = nullptr;
                const CallSite *cs = nullptr;
            };
            std::vector<Ev> evs;
            for (const LockOp &op : ops)
                evs.push_back({op.tokIdx, &op, nullptr});
            for (const CallSite &cs : calls) {
                if (cs.callee == "acquire" || cs.callee == "release")
                    continue; // already covered as lock ops
                evs.push_back({cs.nameIdx, nullptr, &cs});
            }
            std::sort(evs.begin(), evs.end(),
                      [](const Ev &a, const Ev &b) {
                          return a.tok < b.tok;
                      });

            std::vector<Held> held;
            auto holds = [&](const std::string &id) {
                return std::any_of(held.begin(), held.end(),
                                   [&](const Held &h) {
                                       return h.id == id;
                                   });
            };
            auto addEdges = [&](const std::string &id, int line) {
                for (const Held &h : held)
                    if (h.id != id)
                        edges.emplace(std::make_pair(h.id, id),
                                      EdgeSite{f.rel, line, fn.qualName});
            };

            std::size_t ev = 0;
            for (std::size_t k = fn.bodyBegin + 1; k < fn.bodyEnd; ++k) {
                // Interprocedural suspend-while-holding: only locks a
                // callee left held (viaCallee) — the direct form is
                // suspend-under-exclusion's finding.
                if (f.toks[k].is("co_await")) {
                    for (const Held &h : held) {
                        if (!h.viaCallee)
                            continue;
                        if (f.allows(f.toks[k].line, "deadlock"))
                            break;
                        out.push_back(
                            {"deadlock", f.rel, f.toks[k].line,
                             "suspend/" + fn.qualName + "/" + h.id,
                             "co_await while '" + h.id +
                                 "' is still held by an earlier callee "
                                 "in " + fn.qualName +
                                 ": the suspension can interleave "
                                 "(and deadlock) inside the critical "
                                 "section"});
                        break;
                    }
                }

                while (ev < evs.size() && evs[ev].tok == k) {
                    const Ev &e = evs[ev++];
                    if (e.op) {
                        const LockOp &op = *e.op;
                        if (op.isAcquire) {
                            if (holds(op.id) &&
                                !f.allows(op.line, "deadlock"))
                                out.push_back(
                                    {"deadlock", f.rel, op.line,
                                     "reacquire/" + fn.qualName + "/" +
                                         op.id,
                                     "'" + op.id + "' acquired while "
                                     "already held in " + fn.qualName +
                                     ": the semaphore is not reentrant, "
                                     "so this acquire never completes"});
                            addEdges(op.id, op.line);
                            held.push_back({op.id, false});
                        } else {
                            auto it = std::find_if(
                                held.begin(), held.end(),
                                [&](const Held &h) {
                                    return h.id == op.id;
                                });
                            if (it != held.end())
                                held.erase(it);
                        }
                        continue;
                    }

                    const CallSite &cs = *e.cs;
                    if (cs.key.empty())
                        continue;
                    auto sit = p.summaries.find(cs.key);
                    if (sit == p.summaries.end())
                        continue;
                    const FnSummary &s = sit->second;
                    // The callee's lock effects only happen if the call
                    // actually runs here: awaited, or a plain (non-Task,
                    // non-suspending) function.
                    if ((s.suspends || p.taskFns.count(cs.callee) != 0) &&
                        !cs.stmtConsumed)
                        continue;
                    for (const std::string &a : s.acquires) {
                        if (holds(a) && !f.allows(cs.line, "deadlock"))
                            out.push_back(
                                {"deadlock", f.rel, cs.line,
                                 "reacquire/" + fn.qualName + "/" + a,
                                 "call to '" + cs.callee +
                                     "()' re-acquires '" + a +
                                     "' already held in " + fn.qualName +
                                     ": the semaphore is not reentrant, "
                                     "so the nested acquire never "
                                     "completes"});
                        addEdges(a, cs.line);
                    }
                    for (const std::string &a : s.acquires)
                        if (s.releases.count(a) == 0 && !holds(a))
                            held.push_back({a, true});
                    for (const std::string &r : s.releases) {
                        if (s.acquires.count(r) != 0)
                            continue; // internal acquire/release pair
                        auto it = std::find_if(
                            held.begin(), held.end(),
                            [&](const Held &h) { return h.id == r; });
                        if (it != held.end())
                            held.erase(it);
                    }
                }
            }
        }
    }

    // Lock-order cycles: report every edge A->B where B reaches A.
    auto reaches = [&](const std::string &from,
                       const std::string &to) {
        std::vector<std::string> stack = {from};
        std::set<std::string> seen = {from};
        while (!stack.empty()) {
            const std::string cur = stack.back();
            stack.pop_back();
            for (const auto &[e, site] : edges) {
                if (e.first != cur)
                    continue;
                if (e.second == to)
                    return true;
                if (seen.insert(e.second).second)
                    stack.push_back(e.second);
            }
        }
        return false;
    };
    for (const auto &[e, site] : edges) {
        if (!reaches(e.second, e.first))
            continue;
        const SourceFile *sf = p.file(site.file);
        if (sf && sf->allows(site.line, "deadlock"))
            continue;
        out.push_back(
            {"deadlock", site.file, site.line,
             "order/" + e.first + "->" + e.second,
             "lock-order cycle: " + site.fn + " acquires '" + e.second +
                 "' while holding '" + e.first +
                 "', but another path acquires them in the opposite "
                 "order — two tasks interleaving at the acquire's "
                 "co_await deadlock"});
    }
}

} // namespace shrimp::analyze
