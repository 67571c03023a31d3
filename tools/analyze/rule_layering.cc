/**
 * @file
 * layering: three checks over the project's includes.
 *
 *  - Cycles: any include cycle among headers (include guards hide the
 *    compile error but the architectural knot stays).
 *  - Include order in a layered .cc: its own header comes first (so
 *    every header proves it compiles on its own), and a .cc with no
 *    own header keeps every <...> include above the first "..." one.
 *  - Layer order: an include may only reach its own layer or below.
 *    The enforced order (see DESIGN.md §12) is
 *
 *        base(0) < check,sim(1) < mem(2) < net,nic(3) < node(4)
 *               < vmmc(5) < nx,rpc,sock,srpc(6)
 *
 *    node sits above net/nic because a Node is the composition point
 *    that owns a ShrimpNic and a Mesh by value; nothing below node/
 *    includes node headers, so the order is acyclic by construction.
 *    Directories outside this map (tools, bench, tests, examples) are
 *    exempt from both orders but still cycle-checked.
 */

#include <algorithm>
#include <climits>
#include <map>
#include <set>

#include "rules.hh"

namespace shrimp::analyze
{

int
layerOf(const std::string &dir)
{
    static const std::map<std::string, int> layers = {
        {"base", 0}, {"check", 1}, {"sim", 1},  {"mem", 2},
        {"net", 3},  {"nic", 3},   {"node", 4}, {"vmmc", 5},
        {"nx", 6},   {"rpc", 6},   {"sock", 6}, {"srpc", 6},
    };
    auto it = layers.find(dir);
    return it == layers.end() ? -1 : it->second;
}

namespace
{

std::string
dirOf(const std::string &rel)
{
    const std::size_t slash = rel.find('/');
    return slash == std::string::npos ? "" : rel.substr(0, slash);
}

} // namespace

void
ruleLayering(const Project &p, std::vector<Finding> &out)
{
    // ---- layer order ----------------------------------------------------
    for (const SourceFile &f : p.files) {
        const int from = layerOf(f.dir);
        if (from < 0)
            continue;
        for (const auto &[line, inc] : f.includes) {
            const int to = layerOf(dirOf(inc));
            if (to < 0 || to <= from)
                continue;
            if (f.allows(line, "layering"))
                continue;
            out.push_back(
                {"layering", f.rel, line, f.rel + "->" + inc,
                 f.rel + " (layer " + std::to_string(from) +
                     ") includes " + inc + " (layer " +
                     std::to_string(to) +
                     "): includes must not climb the layer order"});
        }
    }

    // ---- include order in layered .cc files ---------------------------
    for (const SourceFile &f : p.files) {
        if (f.isHeader || layerOf(f.dir) < 0)
            continue;
        const int firstSys =
            f.sysIncludes.empty() ? INT_MAX : f.sysIncludes.front().first;
        const int firstProj =
            f.includes.empty() ? INT_MAX : f.includes.front().first;
        const std::string own = f.rel.substr(0, f.rel.rfind('.')) + ".hh";
        if (p.file(own)) {
            const int line = std::min(firstSys, firstProj);
            if (line == INT_MAX || f.allows(line, "layering") ||
                (firstProj < firstSys && f.includes.front().second == own))
                continue;
            out.push_back({"layering", f.rel, line,
                           "own-header-first/" + own,
                           "the first include must be the own header \"" +
                               own + "\", which keeps it self-contained"});
            continue;
        }
        for (const auto &[line, inc] : f.sysIncludes) {
            if (line < firstProj)
                continue;
            if (!f.allows(line, "layering"))
                out.push_back(
                    {"layering", f.rel, line, "include-order/" + inc,
                     "<" + inc + "> comes after a project include (line " +
                         std::to_string(firstProj) +
                         "); a .cc with no own header puts every <...> "
                         "include first"});
            break;
        }
    }

    // ---- include cycles (headers only; nothing includes a .cc) ---------
    std::map<std::string, std::vector<std::pair<int, std::string>>> graph;
    for (const SourceFile &f : p.files) {
        if (!f.isHeader)
            continue;
        for (const auto &[line, inc] : f.includes)
            if (p.file(inc) && p.file(inc)->isHeader)
                graph[f.rel].emplace_back(line, inc);
    }

    std::set<std::string> reportedCycles;
    std::set<std::string> done;
    std::vector<std::string> stack;

    // Iterative DFS would obscure the cycle-path extraction; recursion
    // depth is bounded by include-chain length.
    struct Dfs
    {
        const decltype(graph) &g;
        std::set<std::string> &done;
        std::vector<std::string> &stack;
        std::set<std::string> &reported;
        std::vector<Finding> &out;

        void
        visit(const std::string &n)
        {
            stack.push_back(n);
            auto it = g.find(n);
            if (it != g.end()) {
                for (const auto &[line, inc] : it->second) {
                    auto pos =
                        std::find(stack.begin(), stack.end(), inc);
                    if (pos != stack.end()) {
                        // Normalize the cycle (rotate to smallest
                        // member) so each is reported once.
                        std::vector<std::string> cyc(pos, stack.end());
                        auto small = std::min_element(cyc.begin(),
                                                      cyc.end());
                        std::rotate(cyc.begin(), small, cyc.end());
                        std::string fp;
                        for (const auto &m : cyc)
                            fp += m + "->";
                        fp += cyc.front();
                        if (reported.insert(fp).second)
                            out.push_back(
                                {"layering", n, line, "cycle/" + fp,
                                 "include cycle: " + fp});
                        continue;
                    }
                    if (done.count(inc) == 0)
                        visit(inc);
                }
            }
            stack.pop_back();
            done.insert(n);
        }
    } dfs{graph, done, stack, reportedCycles, out};

    for (const auto &[rel, edges] : graph)
        if (done.count(rel) == 0)
            dfs.visit(rel);
}

} // namespace shrimp::analyze
