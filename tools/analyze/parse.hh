/**
 * @file
 * Declaration/definition parser for shrimp_analyze.
 *
 * A lightweight recursive scan over the token stream — not a grammar.
 * It recognizes exactly the shapes the rules need:
 *
 *  - function definitions with their body token ranges (namespace and
 *    class scope; bodies are opaque to the scanner and are re-scanned
 *    linearly by the rules),
 *  - member/free function declarations with return-type classification
 *    ("returns Task<...>" or not) and class access level,
 *  - nothing else: expressions, templates and initializers are skipped
 *    with balanced-token matching.
 *
 * After all files are parsed, buildTaskIndex() computes the cross-file
 * set of function names that always return Task (name-based; names
 * that are Task-returning in one declaration and not in another are
 * kept apart as ambiguous, and dropped-task checks their calls only
 * through a receiver whose class it can resolve).
 */

#ifndef SHRIMP_TOOLS_ANALYZE_PARSE_HH
#define SHRIMP_TOOLS_ANALYZE_PARSE_HH

#include "model.hh"

namespace shrimp::analyze
{

/** Fill @p f.fns and @p f.members from @p f.toks. */
void parseFile(SourceFile &f);

/** Compute @p p.taskFns / @p p.ambiguousTaskFns from all parsed files. */
void buildTaskIndex(Project &p);

/** Index one past the token matching the opener at @p i (`(`, `{` or
 *  `[`). Returns the end of @p toks if unbalanced. */
std::size_t skipBalanced(const Tokens &toks, std::size_t i);

/** Normalized type text for tokens [lo, hi): identifiers separated by
 *  single spaces, punctuation (`::`, `<`, `>`, `,`, `*`, `&`) packed
 *  tight — "std::vector<sim::Task<>>&". */
std::string typeText(const Tokens &toks, std::size_t lo, std::size_t hi);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_PARSE_HH
