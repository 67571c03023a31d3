/**
 * @file
 * shrimp_analyze CLI.
 *
 *   shrimp_analyze [options] [scan-root...]
 *
 *     scan-root...         directories to scan (default: src). The
 *                          first root is the include-resolution root
 *                          (like -I) and its files keep root-relative
 *                          paths; later roots (tools, bench, examples,
 *                          tests) are prefixed with their basename and
 *                          exempt from the layer order.
 *     --report=FILE        also write the findings report to FILE
 *                          (uploaded as a CI artifact)
 *     --sarif=FILE         write all findings as SARIF 2.1.0
 *
 * A finding is accepted only by an in-source
 * `// analyze: allow(<rule>) — reason` at its site.
 *
 * Exit status: 0 clean, 1 findings, 2 usage or I/O error (an output
 * FILE that cannot be written included).
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hh"
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
    std::string reportPath;
    std::string sarifPath;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--report=", 0) == 0)
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

    std::ostringstream report;
    for (const Finding &f : findings)
        report << formatFinding(f) << "\n";
    report << "shrimp_analyze: " << findings.size() << " finding(s)\n";

    std::cout << report.str();
    if (!reportPath.empty() && !writeFile(reportPath, report.str()))
        return 2;
    return findings.empty() ? 0 : 1;
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
