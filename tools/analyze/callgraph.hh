/**
 * @file
 * Receiver-resolved call sites for shrimp_analyze.
 *
 * callSites() re-scans one function body and returns every call
 * expression with:
 *
 *  - the receiver chain (`bus_.`, `node->nic().`, `this->`) resolved
 *    through the typed symbol index (locals -> parameters -> fields of
 *    the enclosing class, then field/method hops) to the class the
 *    call dispatches to, giving a summary key ("Class::method" or
 *    bare "name") that matches the keys dataflow.cc computes
 *    interprocedural FnSummaries under, or "" when the callee cannot
 *    be resolved (std:: members, externs),
 *  - whether its statement returns the call's value.
 *
 * The scan is linear and allocation-light; rules call it per function
 * at analysis time.
 */

#ifndef SHRIMP_TOOLS_ANALYZE_CALLGRAPH_HH
#define SHRIMP_TOOLS_ANALYZE_CALLGRAPH_HH

#include "model.hh"

namespace shrimp::analyze
{

struct CallSite
{
    std::string callee;        //!< name as written
    std::string key;           //!< summary key, or "" when unresolved
    int line = 0;
    std::size_t nameIdx = 0;   //!< token index of the callee identifier
    std::size_t argsBegin = 0; //!< first token inside the parens
    std::size_t argsEnd = 0;   //!< one past the last token inside
    bool stmtReturns = false;  //!< stmt has return/co_return
};

/** All call expressions in @p fn's body, resolved against @p p. */
std::vector<CallSite> callSites(const Project &p, const SourceFile &f,
                                const FnDef &fn);

/** The summary key for a definition: "Class::name" or bare "name". */
std::string fnKey(const FnDef &fn);

/** Split the argument token range [argsBegin, argsEnd) of a call into
 *  per-argument token ranges (top-level commas). */
std::vector<std::pair<std::size_t, std::size_t>>
splitArgs(const Tokens &toks, std::size_t argsBegin, std::size_t argsEnd);

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_CALLGRAPH_HH
