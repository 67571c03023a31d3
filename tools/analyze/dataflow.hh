/**
 * @file
 * Interprocedural dataflow for shrimp_analyze: fills
 * Project::summaries with per-function facts propagated to a fixpoint
 * over the receiver-resolved call graph (callgraph.hh).
 *
 * Per function (keyed "Class::name" / bare "name"):
 *
 *   returnsTaint      a return statement carries a host-nondeterminism
 *                     source, directly or via a tainted callee
 *   consumesTaskParam Task/Task-container parameters the function
 *                     actually consumes (awaits, drains, forwards to a
 *                     consumer); calls the index cannot resolve are
 *                     treated as consuming, so "not consumed" is a
 *                     positive proof the Task goes nowhere
 *   paramToSink       parameters that flow into event scheduling
 *                     (schedule/scheduleIn/scheduleAt/Delay), directly
 *                     or transitively
 */

#ifndef SHRIMP_TOOLS_ANALYZE_DATAFLOW_HH
#define SHRIMP_TOOLS_ANALYZE_DATAFLOW_HH

#include "model.hh"

namespace shrimp::analyze
{

/** Compute Project::summaries (seeds + fixpoint). Requires parsed
 *  files, extractTypes() and buildTypeIndex() to have run. */
void buildSummaries(Project &p);

/** Is @p name a host-nondeterminism source (wall clock, PRNG)? */
bool isNondetSource(const std::string &name);

/** Is @p name an event-scheduling sink (schedule/scheduleIn/
 *  scheduleAt/Delay)? */
bool isScheduleSink(const std::string &name);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_DATAFLOW_HH
