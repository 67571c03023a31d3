/**
 * @file
 * SARIF 2.1.0 output for shrimp_analyze, so CI can upload findings to
 * code-scanning UIs. One run, one tool ("shrimp_analyze"), one rule
 * entry per analyzer rule; each finding becomes a result with its
 * file/line location and its line-free fingerprint under
 * partialFingerprints (key "shrimpAnalyze/v1") so scanning backends
 * track findings across line drift.
 */

#ifndef SHRIMP_TOOLS_ANALYZE_SARIF_HH
#define SHRIMP_TOOLS_ANALYZE_SARIF_HH

#include <set>
#include <string>
#include <vector>

#include "model.hh"

namespace shrimp::analyze
{

/** Render @p findings as a SARIF 2.1.0 JSON document. @p srcRootLabel
 *  is prefixed to finding paths that are relative to the primary scan
 *  root (e.g. "src"); paths whose first component is in
 *  @p labeledRoots (secondary roots keep their label in the path,
 *  "tools/...") are emitted as-is. */
std::string sarifReport(const std::vector<Finding> &findings,
                        const std::string &srcRootLabel,
                        const std::set<std::string> &labeledRoots);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_SARIF_HH
