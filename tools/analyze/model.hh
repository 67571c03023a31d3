/**
 * @file
 * Data model shared by the shrimp_analyze passes: a lexed source file,
 * the parsed function/class facts extracted from it, the cross-file
 * project index (name-based Task index, typed symbol index, call
 * graph + interprocedural summaries), and findings.
 *
 * Pipeline: lexer (token.hh/lexer.hh) -> parse (function bodies, class
 * member declarations and body ranges, include edges) -> types
 * (aliases, class fields, parameter/local/return types) -> callgraph +
 * dataflow (receiver-resolved call edges, Task-lifetime and taint
 * summaries) -> rules (rules.hh) -> baseline filter (baseline.hh) ->
 * report (main.cc: text and/or SARIF 2.1.0).
 */

#ifndef SHRIMP_TOOLS_ANALYZE_MODEL_HH
#define SHRIMP_TOOLS_ANALYZE_MODEL_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "token.hh"

namespace shrimp::analyze
{

/** One `// analyze: allow(rule)` (or `analyze: free`) annotation.
 *  Suppresses findings of @p rule on its own line and the next three
 *  (so an annotation can sit above the declaration it excuses). */
struct Annotation
{
    int line = 0;
    std::string rule; //!< rule name; "free" is an alias for charged-time
};

/** One function parameter with its declared type (normalized text). */
struct Param
{
    std::string name; //!< may be empty (unnamed parameter)
    std::string type; //!< normalized, as written ("sim::Task<>&")
};

/** One local variable declaration inside a function body. */
struct Local
{
    std::string name;
    std::string type; //!< normalized declared type ("auto" included)
    int line = 0;
};

/** A function definition (has a body) found in a file. */
struct FnDef
{
    std::string name;      //!< unqualified name
    std::string qualName;  //!< A::B::name as written
    std::string className; //!< enclosing (or qualifying) class, or ""
    int line = 0;
    std::size_t bodyBegin = 0; //!< token index of the `{`
    std::size_t bodyEnd = 0;   //!< token index one past the matching `}`
    bool returnsTask = false;
    std::string retType;       //!< normalized return type text ("" if unknown)
    std::vector<Param> params;
    std::vector<Local> locals; //!< filled by the types pass
};

/** A member-function declaration inside a class body (no body here). */
struct MemberDecl
{
    std::string className;
    std::string name;
    int line = 0;
    bool returnsTask = false;
    bool isPublic = false;
    std::string retType; //!< normalized return type text
    std::vector<Param> params;
};

/** A data member declaration inside a class body. */
struct FieldDecl
{
    std::string className;
    std::string name;
    std::string type; //!< normalized declared type
    int line = 0;
};

/** A class/struct definition with its body token range. */
struct ClassDef
{
    std::string name;
    int line = 0;
    std::size_t bodyBegin = 0; //!< token index of the `{`
    std::size_t bodyEnd = 0;   //!< one past the matching `}`
};

struct SourceFile
{
    std::string rel;  //!< path relative to the include root ("sim/bus.cc")
    std::string dir;  //!< first path component ("sim")
    bool isHeader = false;
    Tokens toks;
    std::vector<Annotation> annotations;
    /** Project-relative includes: (line, "dir/file.hh"). */
    std::vector<std::pair<int, std::string>> includes;

    std::vector<FnDef> fns;
    std::vector<MemberDecl> members;
    std::vector<ClassDef> classes;
    std::vector<FieldDecl> fields;
    /** `using NAME = TYPE;` / `typedef TYPE NAME;` in this file. */
    std::vector<std::pair<std::string, std::string>> aliases;

    bool allows(int line, const std::string &rule) const;
};

/** The project-wide typed symbol index (types.cc). All type strings
 *  stored here are alias-resolved and normalized. */
struct TypeIndex
{
    /** alias name -> underlying type, fully resolved. */
    std::map<std::string, std::string> aliases;
    /** class -> field -> type. */
    std::map<std::string, std::map<std::string, std::string>> fields;
    /** class -> method -> return type (first declaration wins). */
    std::map<std::string, std::map<std::string, std::string>> methods;
    /** free function -> return type; only names whose indexed
     *  declarations all agree (no overload resolution). */
    std::map<std::string, std::string> freeFns;

    /** Resolve leading alias layers in @p type (bounded). */
    std::string resolve(const std::string &type) const;
};

/** One interprocedural function summary (dataflow.cc). Functions are
 *  keyed by qualified name ("Engine::deliver") with an unqualified
 *  fallback; overloads collapse onto one key (conservative joins). */
struct FnSummary
{
    bool defined = false;      //!< a body was seen
    bool returnsTaint = false; //!< return value carries host nondeterminism
    /** Parameter indices with a Task/Task-container declared type. A
     *  parameter is provably non-consuming only when it is in this set
     *  and not in consumesTaskParam. */
    std::set<int> taskParams;
    /** Parameter indices whose Task/Task-container argument is consumed
     *  (awaited, drained, spawned, stored, or forwarded to a consumer).
     *  Parameters of undefined functions are treated as consuming. */
    std::set<int> consumesTaskParam;
    /** Parameter indices that flow into a scheduling/trace sink. */
    std::set<int> paramToSink;
};

/** Everything the rules see. */
struct Project
{
    std::vector<SourceFile> files;

    /** Names for which *every* indexed declaration/definition returns
     *  Task<...>. Name-based matching has no overload resolution, so a
     *  name that is Task-returning in one class and not in another is
     *  ambiguous and excluded (conservative: no false positives). */
    std::set<std::string> taskFns;
    std::set<std::string> ambiguousTaskFns;

    TypeIndex types;
    /** Function key -> summary (see FnSummary). */
    std::map<std::string, FnSummary> summaries;

    const SourceFile *file(const std::string &rel) const;
};

struct Finding
{
    std::string rule;
    std::string file; //!< relative to the include root
    int line = 0;
    /** Stable identity for baseline matching: survives line drift
     *  (function/include-edge names, not line numbers). */
    std::string fingerprint;
    std::string message;
};

} // namespace shrimp::analyze

#endif // SHRIMP_TOOLS_ANALYZE_MODEL_HH
