/**
 * @file
 * C++ lexer for shrimp_analyze. Produces the token stream for one
 * source file, drops comments/string contents (mining comments for
 * `analyze:` annotations first), records #include directives (project
 * and system) and the include guard, and skips all other preprocessor
 * lines so macro definitions cannot confuse the downstream
 * token-pattern parser.
 */

#ifndef SHRIMP_TOOLS_ANALYZE_LEXER_HH
#define SHRIMP_TOOLS_ANALYZE_LEXER_HH

#include <string>

#include "model.hh"

namespace shrimp::analyze
{

/** Lex @p text into @p out (toks, annotations, includes and guard).
 *  @p out.rel and @p out.dir must already be set by the caller. */
void lexFile(const std::string &text, SourceFile &out);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_LEXER_HH
