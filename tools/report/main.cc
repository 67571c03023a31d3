/**
 * @file
 * shrimp_report CLI: merge a bench run's observability artifacts into
 * one markdown report.
 *
 *   shrimp_report [--trace=FILE] [--profile=FILE] [--out=FILE] [--top=N]
 *
 *     --trace=FILE       Chrome trace-event JSON (bench --trace=), with
 *                        the sampled stat counters as counter events
 *     --profile=FILE     host-cost profile (bench --profile=)
 *     --out=FILE         write the report here (default: stdout)
 *     --top=N            rows in the ranking tables (default: 20)
 *
 * At least one input flag is required. Exit status follows the
 * run_clang_tidy.sh convention: 0 report written, 1 an input existed
 * but could not be parsed, 2 usage error, 3 a requested input file is
 * missing — the report is SKIPPED loudly rather than emitted empty and
 * clean-looking.
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
    std::cerr << "usage: shrimp_report [--trace=FILE] [--profile=FILE]"
                 " [--out=FILE] [--top=N]\n"
                 "at least one of --trace/--profile is required\n";
    return 2;
}

/** Open a requested input or exit 3: a missing file must never produce
 *  a clean-looking (but empty) report section. */
bool
openInput(const char *flag, const std::string &path, std::ifstream &f)
{
    f.open(path);
    if (!f) {
        std::cerr << "shrimp_report: SKIPPED: cannot open " << flag
                  << " input '" << path
                  << "' (no report written; pass an existing file or "
                     "drop the flag)\n";
        return false;
    }
    return true;
}

int
run(int argc, char **argv)
{
    std::string tracePath, profilePath, outPath;
    int topN = 20;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace=", 8) == 0) {
            tracePath = arg + 8;
        } else if (std::strncmp(arg, "--profile=", 10) == 0) {
            profilePath = arg + 10;
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
    if (tracePath.empty() && profilePath.empty())
        return usage();

    TraceData trace;
    ProfileData profile;
    bool haveTrace = false, haveProfile = false;
    std::string err;
    if (!tracePath.empty()) {
        std::ifstream f;
        if (!openInput("--trace", tracePath, f))
            return 3;
        if (!parseTrace(f, trace, err)) {
            std::cerr << "shrimp_report: " << tracePath << ": " << err
                      << "\n";
            return 1;
        }
        haveTrace = true;
    }
    if (!profilePath.empty()) {
        std::ifstream f;
        if (!openInput("--profile", profilePath, f))
            return 3;
        if (!parseProfile(f, profile, err)) {
            std::cerr << "shrimp_report: " << profilePath << ": " << err
                      << "\n";
            return 1;
        }
        haveProfile = true;
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
    writeReport(*os, haveTrace ? &trace : nullptr,
                haveProfile ? &profile : nullptr, topN);
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
