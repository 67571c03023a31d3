/**
 * @file
 * shrimp_report CLI: turn a bench run's trace file into one markdown
 * report.
 *
 *   shrimp_report --trace=FILE [--out=FILE] [--top=N]
 *
 *     --trace=FILE       Chrome trace-event JSON (bench --trace=): one
 *                        process per simulated machine, the sampled
 *                        stat counters as counter events, and under
 *                        bench --profile the host-cost counter tracks
 *     --out=FILE         write the report here (default: stdout)
 *     --top=N            rows in the ranking tables (default: 20)
 *
 * Exit status follows the run_clang_tidy.sh convention: 0 report
 * written, 1 the trace could not be parsed, 2 usage error, 3 the trace
 * file is missing — the report is SKIPPED loudly rather than emitted
 * empty and clean-looking.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "report.hh"

namespace
{

using namespace shrimp::report;

int
usage()
{
    std::cerr << "usage: shrimp_report --trace=FILE [--out=FILE] "
                 "[--top=N]\n";
    return 2;
}

int
run(int argc, char **argv)
{
    std::string tracePath, outPath;
    int topN = 20;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace=", 8) == 0) {
            tracePath = arg + 8;
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            outPath = arg + 6;
        } else if (std::strncmp(arg, "--top=", 6) == 0) {
            topN = std::atoi(arg + 6);
            if (topN <= 0) {
                std::cerr << "shrimp_report: bad --top value '"
                          << arg + 6 << "'\n";
                return 2;
            }
        } else {
            std::cerr << "shrimp_report: unknown argument '" << arg
                      << "'\n";
            return usage();
        }
    }
    if (tracePath.empty())
        return usage();

    // A missing file must never produce a clean-looking (but empty)
    // report.
    std::ifstream in(tracePath);
    if (!in) {
        std::cerr << "shrimp_report: SKIPPED: cannot open --trace input '"
                  << tracePath
                  << "' (no report written; pass an existing file)\n";
        return 3;
    }
    TraceData trace;
    std::string err;
    if (!parseTrace(in, trace, err)) {
        std::cerr << "shrimp_report: " << tracePath << ": " << err << "\n";
        return 1;
    }

    std::ofstream outFile;
    std::ostream *os = &std::cout;
    if (!outPath.empty()) {
        outFile.open(outPath);
        if (!outFile) {
            std::cerr << "shrimp_report: cannot write --out file '"
                      << outPath << "'\n";
            return 2;
        }
        os = &outFile;
    }
    writeReport(*os, trace, topN);
    if (!outPath.empty())
        std::cerr << "shrimp_report: wrote " << outPath << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return run(argc, argv);
}
