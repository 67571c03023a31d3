/**
 * @file
 * shrimp_analyze CLI.
 *
 *   shrimp_analyze [options] [scan-root...]
 *
 *     scan-root...         directories to scan (default: src). The
 *                          first root is the include-resolution root
 *                          (like -I) and its files keep root-relative
 *                          paths; later roots (tools, bench) are
 *                          prefixed with their basename and exempt
 *                          from the layer order.
 *     --baseline=FILE      accepted-findings file
 *                          (default: tools/analyze/baseline.txt next
 *                          to the first root's parent, if present)
 *     --update-baseline    rewrite the baseline to the current
 *                          findings and exit 0
 *     --report=FILE        also write the findings report to FILE
 *                          (uploaded as a CI artifact)
 *     --sarif=FILE         write all findings (baselined included —
 *                          scanning backends do their own tracking via
 *                          partialFingerprints) as SARIF 2.1.0
 *
 * Exit status: 0 clean (all findings baselined), 1 fresh findings,
 * 2 usage or I/O error (an output FILE that cannot be written
 * included).
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hh"
#include "baseline.hh"
#include "sarif.hh"

namespace
{

using namespace shrimp::analyze;

/** Write @p text to @p path; false (after saying so) when the file
 *  cannot be created or the write fails. */
bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text << std::flush;
    if (out)
        return true;
    std::cerr << "shrimp_analyze: cannot write " << path << "\n";
    return false;
}

int
run(int argc, char **argv)
{
    std::vector<std::string> roots;
    std::string baselinePath;
    std::string reportPath;
    std::string sarifPath;
    bool updateBaseline = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--baseline=", 0) == 0)
            baselinePath = arg.substr(11);
        else if (arg == "--update-baseline")
            updateBaseline = true;
        else if (arg.rfind("--report=", 0) == 0)
            reportPath = arg.substr(9);
        else if (arg.rfind("--sarif=", 0) == 0)
            sarifPath = arg.substr(8);
        else if (arg.rfind("--", 0) == 0) {
            std::cerr << "shrimp_analyze: unknown option " << arg << "\n";
            return 2;
        } else
            roots.push_back(arg);
    }
    if (roots.empty())
        roots.push_back("src");

    for (const std::string &root : roots) {
        if (!std::filesystem::is_directory(root)) {
            std::cerr << "shrimp_analyze: no such directory: " << root
                      << "\n";
            return 2;
        }
    }
    if (baselinePath.empty()) {
        const auto guess =
            std::filesystem::path(roots.front()).parent_path() /
            "tools" / "analyze" / "baseline.txt";
        if (std::filesystem::exists(guess))
            baselinePath = guess.string();
    }

    const std::vector<Finding> findings = analyzeTrees(roots);

    if (!sarifPath.empty()) {
        std::set<std::string> labeled;
        for (std::size_t r = 1; r < roots.size(); ++r)
            labeled.insert(std::filesystem::path(roots[r])
                               .filename()
                               .generic_string());
        const std::string srcLabel =
            std::filesystem::path(roots.front())
                .filename()
                .generic_string();
        if (!writeFile(sarifPath,
                       sarifReport(findings, srcLabel, labeled)))
            return 2;
    }

    if (updateBaseline) {
        if (baselinePath.empty()) {
            std::cerr << "shrimp_analyze: --update-baseline needs "
                         "--baseline=FILE\n";
            return 2;
        }
        std::ostringstream text;
        text << "# shrimp_analyze baseline: accepted findings, pinned.\n"
             << "# One `rule|file|fingerprint` per line. Regenerate with\n"
             << "#   shrimp_analyze --baseline=THIS --update-baseline\n"
             << "# only after deciding each new finding is intentional.\n";
        for (const Finding &f : findings)
            text << baselineEntry(f) << "\n";
        if (!writeFile(baselinePath, text.str()))
            return 2;
        std::cout << "shrimp_analyze: baseline updated ("
                  << findings.size() << " entries)\n";
        return 0;
    }

    bool baselineExisted = false;
    const auto entries = loadBaseline(baselinePath, baselineExisted);
    if (!baselinePath.empty() && !baselineExisted) {
        std::cerr << "shrimp_analyze: baseline " << baselinePath
                  << " not readable\n";
        return 2;
    }
    const BaselineResult r = applyBaseline(findings, entries);

    std::ostringstream report;
    for (const Finding &f : r.fresh)
        report << formatFinding(f) << "\n";
    report << "shrimp_analyze: " << r.fresh.size() << " finding(s), "
           << r.suppressed.size() << " baselined, " << r.stale.size()
           << " stale baseline entr"
           << (r.stale.size() == 1 ? "y" : "ies") << "\n";

    std::cout << report.str();
    for (const std::string &s : r.stale)
        std::cerr << "shrimp_analyze: stale baseline entry (fix no "
                     "longer needed? remove it): "
                  << s << "\n";
    if (!reportPath.empty() && !writeFile(reportPath, report.str()))
        return 2;
    return r.fresh.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "shrimp_analyze: " << e.what() << "\n";
        return 2;
    }
}
