#include "analyzer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "dataflow.hh"
#include "lexer.hh"
#include "parse.hh"
#include "rules.hh"
#include "types.hh"

namespace shrimp::analyze
{

namespace fs = std::filesystem;

namespace
{

bool
isSourceExt(const std::string &ext)
{
    return ext == ".hh" || ext == ".cc" || ext == ".hpp" ||
           ext == ".cpp";
}

/** Directories the scan never descends into: build trees (any
 *  `build*` — a stray `cmake -B build-foo` inside a scan root must
 *  not pollute the symbol index) and dot-directories (.git, .cache). */
bool
skipDirName(const std::string &name)
{
    return name.rfind("build", 0) == 0 ||
           (!name.empty() && name[0] == '.');
}

/** Lex/parse/extract the file at @p abs, labeled @p rel. */
void
loadOne(const fs::path &abs, const std::string &rel, SourceFile &f)
{
    std::ifstream in(abs);
    std::stringstream ss;
    ss << in.rdbuf();

    f.rel = rel;
    const std::size_t slash = rel.find('/');
    f.dir = slash == std::string::npos ? "" : rel.substr(0, slash);
    const std::string ext = abs.extension().string();
    f.isHeader = ext == ".hh" || ext == ".hpp";

    lexFile(ss.str(), f);
    parseFile(f);
    extractTypes(f);
}

/** Canonicalize include directives against the loaded file set so the
 *  cycle check and layer rule see one name per file: exact match
 *  first, then relative to the includer's directory, then prefixed
 *  with each secondary root label. Unresolvable includes (system
 *  headers, generated files) are left as written. */
void
canonicalizeIncludes(Project &p, const std::vector<std::string> &labels)
{
    std::set<std::string> known;
    for (const SourceFile &f : p.files)
        known.insert(f.rel);

    for (SourceFile &f : p.files) {
        const std::size_t slash = f.rel.rfind('/');
        const std::string sibling =
            slash == std::string::npos ? "" : f.rel.substr(0, slash + 1);
        for (auto &[line, inc] : f.includes) {
            if (known.count(inc) != 0)
                continue;
            if (!sibling.empty() && known.count(sibling + inc) != 0) {
                inc = sibling + inc;
                continue;
            }
            for (const std::string &label : labels) {
                if (known.count(label + "/" + inc) != 0) {
                    inc = label + "/" + inc;
                    break;
                }
            }
        }
    }
}

} // namespace

Project
loadProject(const std::vector<std::string> &roots)
{
    Project p;
    std::vector<std::string> labels; // secondary-root path prefixes
    for (std::size_t r = 0; r < roots.size(); ++r) {
        const std::string &root = roots[r];
        const std::string label =
            r == 0 ? "" : fs::path(root).filename().generic_string();
        if (r != 0)
            labels.push_back(label);

        std::vector<std::string> rels;
        for (auto it = fs::recursive_directory_iterator(root);
             it != fs::recursive_directory_iterator(); ++it) {
            const auto &ent = *it;
            if (ent.is_directory()) {
                if (skipDirName(
                        ent.path().filename().generic_string()))
                    it.disable_recursion_pending();
                continue;
            }
            if (!ent.is_regular_file())
                continue;
            if (!isSourceExt(ent.path().extension().string()))
                continue;
            rels.push_back(
                fs::relative(ent.path(), root).generic_string());
        }
        std::sort(rels.begin(), rels.end()); // host dir order varies

        for (const std::string &rel : rels) {
            p.files.emplace_back();
            loadOne(fs::path(root) / rel,
                    label.empty() ? rel : label + "/" + rel,
                    p.files.back());
        }
    }

    canonicalizeIncludes(p, labels);
    buildTaskIndex(p);
    buildTypeIndex(p);
    buildSummaries(p);
    return p;
}

std::vector<Finding>
runRules(const Project &p)
{
    std::vector<Finding> out;
    ruleDroppedTask(p, out);
    ruleDeterminism(p, out);
    ruleLayering(p, out);
    ruleChargedTime(p, out);
    ruleTaint(p, out);
    ruleSharedMutableStatic(p, out);
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.fingerprint < b.fingerprint;
              });
    return out;
}

std::vector<Finding>
analyzeTrees(const std::vector<std::string> &roots)
{
    return runRules(loadProject(roots));
}

std::string
formatFinding(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message;
}

} // namespace shrimp::analyze
