/**
 * @file
 * The seven shrimp_analyze rules. Each pass receives the fully parsed
 * and summarized Project and appends Findings. An in-source
 * `// analyze: allow(<rule>) — reason` is the only way to accept one.
 *
 * Rule names (used in reports, SARIF and `analyze: allow(...)`
 * annotations):
 *
 *   dropped-task             a call to a Task-returning function whose
 *                            result is neither co_awaited, spawned,
 *                            returned, nor (if stored) ever consumed —
 *                            a simulated activity that silently never
 *                            runs. Catches the `auto t = f();` hole
 *                            [[nodiscard]] cannot see.
 *   determinism              wall-clock/PRNG sources or iteration over
 *                            pointer-keyed containers in the layered
 *                            src dirs — host state feeding simulated
 *                            state or traces.
 *   layering                 include-graph cycles anywhere; includes
 *                            that climb the layer order base <
 *                            check/sim < mem < net/nic < node < vmmc <
 *                            libraries; and a layered .cc whose own
 *                            header is not its first include, or (with
 *                            no own header) a <...> include after a
 *                            "..." one.
 *   charged-time             a public Task-returning entry point in
 *                            nic/ or mem/ that never charges CPU/bus
 *                            time (directly or through its callees)
 *                            and is not annotated `analyze: free`.
 *   determinism-taint        a wall-clock/PRNG value (or a call whose
 *                            summarized return carries one) flowing
 *                            into event scheduling — schedule(),
 *                            scheduleIn/At(), Delay{...} or a
 *                            parameter that provably reaches one.
 *   shared-mutable-static    namespace/class/function-scope mutable
 *                            `static` data in the layered src dirs:
 *                            storage every Machine in a process
 *                            shares. Deliberate singletons are
 *                            allowlisted with `analyze:
 *                            allow(shared-mutable-static) — reason`.
 *   hygiene                  a header whose include guard is not named
 *                            after its path, `using namespace` outside
 *                            a function body or `main()` in a header,
 *                            `std::function` in src/sim, and sim::Task
 *                            without `[[nodiscard]]`.
 *
 * A zero-delay event cycle is caught at run time instead, by the
 * SimChecker guard in SHRIMP_CHECK builds (DESIGN.md §10).
 */

#ifndef SHRIMP_TOOLS_ANALYZE_RULES_HH
#define SHRIMP_TOOLS_ANALYZE_RULES_HH

#include "model.hh"

namespace shrimp::analyze
{

void ruleDroppedTask(const Project &p, std::vector<Finding> &out);
void ruleDeterminism(const Project &p, std::vector<Finding> &out);
void ruleLayering(const Project &p, std::vector<Finding> &out);
void ruleChargedTime(const Project &p, std::vector<Finding> &out);
void ruleTaint(const Project &p, std::vector<Finding> &out);
void ruleSharedMutableStatic(const Project &p, std::vector<Finding> &out);
void ruleHygiene(const Project &p, std::vector<Finding> &out);

/** Layer index of a layered src directory ("base" 0 ... "srpc" 6),
 *  or -1 for any other directory (tools, bench, tests, examples). */
int layerOf(const std::string &dir);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_RULES_HH
