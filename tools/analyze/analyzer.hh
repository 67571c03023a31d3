/**
 * @file
 * Top-level driver for shrimp_analyze: walk one or more scan roots,
 * lex/parse/type-extract every .hh/.cc under them, build the
 * cross-file indexes (Task index, typed symbol index, interprocedural
 * summaries) and run all rules, returning deterministically ordered
 * findings. Linked by both the CLI (main.cc) and tests/test_analyze.cc.
 *
 * Path scheme: files under the first root keep root-relative paths
 * ("sim/bus.cc" — also the include-resolution scheme, mirroring the
 * build's -I src). Files under additional roots are prefixed with the
 * root's basename ("tools/report/main.cc"), whose first component is
 * exempt from the layer order. Include directives are canonicalized
 * against the loaded file set (exact, then includer-sibling, then each
 * secondary root) so the cycle check sees one name per file.
 */

#ifndef SHRIMP_TOOLS_ANALYZE_ANALYZER_HH
#define SHRIMP_TOOLS_ANALYZE_ANALYZER_HH

#include <string>
#include <vector>

#include "model.hh"

namespace shrimp::analyze
{

/** Lex + parse + index every C++ file under @p roots (first root
 *  unprefixed, later roots label-prefixed), in sorted path order.
 *  Directories named `build*` or starting with `.` are never
 *  scanned. */
Project loadProject(const std::vector<std::string> &roots);

/** Run all rules; findings sorted by (file, line, rule, fingerprint). */
std::vector<Finding> runRules(const Project &p);

/** loadProject + runRules. */
std::vector<Finding> analyzeTrees(const std::vector<std::string> &roots);

/** `file:line: [rule] message` */
std::string formatFinding(const Finding &f);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_ANALYZER_HH
