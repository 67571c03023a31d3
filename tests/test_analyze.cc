/**
 * @file
 * Tests for shrimp_analyze (tools/analyze): the seeded fixture corpus
 * under tests/analyze_fixtures/ must yield exactly the expected
 * finding per rule (and nothing for the near-miss negatives), the live
 * src/, tools/, bench/, examples/ and tests/ trees must be clean, the
 * SARIF report must describe exactly the rules the analyzer emits, and
 * the CLI must exit 2 when it cannot write an output file.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "analyzer.hh"
#include "sarif.hh"

namespace shrimp::analyze
{
namespace
{

std::string
dump(const std::vector<Finding> &fs)
{
    std::string s;
    for (const Finding &f : fs)
        s += "  " + formatFinding(f) + "\n";
    return s;
}

std::multiset<std::string>
keys(const std::vector<Finding> &fs)
{
    std::multiset<std::string> k;
    for (const Finding &f : fs)
        k.insert(f.rule + "|" + f.fingerprint);
    return k;
}

TEST(Analyze, FixtureCorpusYieldsExactlyTheSeededViolations)
{
    const auto findings = analyzeTrees({SHRIMP_ANALYZE_FIXTURES});

    const std::multiset<std::string> want = {
        "charged-time|Engine::deliver",
        "determinism|banned/rand",
        "determinism|banned/steady_clock",
        "determinism|ptr-iter/live_",
        "determinism|ptr-iter/snap",
        "determinism-taint|indirect/paramSink/noisy",
        "determinism-taint|jitters/scheduleIn/delay",
        "determinism-taint|schedulesHost/scheduleIn/t",
        "determinism-taint|waitsNoisy/Delay/span",
        "dropped-task|bracedArgs/pump",
        "dropped-task|bracedArgs/tick",
        "dropped-task|dropsViaCall/tick/passed",
        "dropped-task|handsOff/container/work",
        "dropped-task|runsNothing/pump/stored",
        "dropped-task|runsNothing/tick",
        "dropped-task|sends/send",
        "dropped-task|stockpiles/container/backlog",
        "hygiene|guard/SHRIMP_SIM_HYGIENE_HH",
        "hygiene|main",
        "hygiene|nodiscard/Task",
        "hygiene|std-function",
        "hygiene|using-namespace/std",
        "layering|cycle/base/loop_a.hh->base/loop_b.hh->base/loop_a.hh",
        "layering|include-order/string",
        "layering|mem/backdoor.hh->net/wire.hh",
        "layering|own-header-first/mem/backdoor.hh",
        "shared-mutable-static|static/global/reg",
    };
    EXPECT_EQ(keys(findings), want) << dump(findings);
}

TEST(Analyze, BracedArgumentsDoNotMergeStatements)
{
    // `table(1, {{"a", 2}});` must not merge the spawn after it with
    // the bare call below: only the bare call (line 24) and the call in
    // the lambda body (line 26) are findings, not the spawn (line 23).
    std::vector<int> lines;
    for (const Finding &f : analyzeTrees({SHRIMP_ANALYZE_FIXTURES})) {
        if (f.file == "sim/braced.cc")
            lines.push_back(f.line);
    }
    EXPECT_EQ(lines, (std::vector<int>{24, 26}));
}

TEST(Analyze, FixtureCorpusCoversEveryRule)
{
    const auto findings = analyzeTrees({SHRIMP_ANALYZE_FIXTURES});
    std::set<std::string> rules;
    for (const Finding &f : findings)
        rules.insert(f.rule);
    const std::set<std::string> want = {
        "charged-time", "determinism", "determinism-taint",
        "dropped-task", "hygiene",     "layering",
        "shared-mutable-static",
    };
    EXPECT_EQ(rules, want) << dump(findings);
}

TEST(Analyze, FixtureFindingsCarryFileAndLine)
{
    for (const Finding &f : analyzeTrees({SHRIMP_ANALYZE_FIXTURES})) {
        EXPECT_FALSE(f.file.empty()) << formatFinding(f);
        EXPECT_GT(f.line, 0) << formatFinding(f);
        EXPECT_FALSE(f.message.empty()) << formatFinding(f);
    }
}

TEST(Analyze, LiveTreeIsClean)
{
    // The same roots CI scans, so a finding anywhere fails locally too.
    const auto findings = analyzeTrees(
        {SHRIMP_ANALYZE_SRC, SHRIMP_ANALYZE_TOOLS, SHRIMP_ANALYZE_BENCH,
         SHRIMP_ANALYZE_EXAMPLES, SHRIMP_ANALYZE_TESTS});
    EXPECT_TRUE(findings.empty())
        << "analyzer findings on src/, tools/, bench/, examples/ or "
           "tests/ (fix them, or annotate a deliberate exception with "
           "`analyze: allow(<rule>) — reason`):\n"
        << dump(findings);
}

TEST(Analyze, FindingFormat)
{
    const Finding f{"dropped-task", "sim/x.cc", 12, "fn/callee", "boom"};
    EXPECT_EQ(formatFinding(f), "sim/x.cc:12: [dropped-task] boom");
}

TEST(Analyze, BuildDirsAndDotDirsAreSkipped)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(::testing::TempDir()) / "shrimp_analyze_build_skip";
    fs::remove_all(root);
    fs::create_directories(root / "sim");
    fs::create_directories(root / "build");
    fs::create_directories(root / "build-asan" / "sim");
    fs::create_directories(root / ".cache");
    fs::create_directories(root / "analyze_fixtures");

    const char *bug = "namespace x {\n"
                      "template <typename T = void> class Task;\n"
                      "Task<> work();\n"
                      "void go()\n{\n    work();\n}\n"
                      "} // namespace x\n";
    std::ofstream(root / "sim" / "live.cc") << bug;
    std::ofstream(root / "build" / "gen.cc") << bug;
    std::ofstream(root / "build-asan" / "sim" / "gen.cc") << bug;
    std::ofstream(root / ".cache" / "gen.cc") << bug;
    std::ofstream(root / "analyze_fixtures" / "seeded.cc") << bug;

    const auto findings = analyzeTrees({root.string()});
    ASSERT_EQ(findings.size(), 1u) << dump(findings);
    EXPECT_EQ(findings[0].file, "sim/live.cc");
    fs::remove_all(root);
}

// ---------------------------------------------------------------------
// SARIF: a compact JSON reader (objects/arrays/strings/numbers/bools)
// sufficient to check the emitted report against the SARIF 2.1.0
// structure code-scanning backends require.

struct Json
{
    enum Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    } kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json &operator[](const std::string &k) const
    {
        static const Json none;
        auto it = obj.find(k);
        return it == obj.end() ? none : it->second;
    }
    const Json &at(std::size_t i) const
    {
        static const Json none;
        return i < arr.size() ? arr[i] : none;
    }
};

struct JsonParser
{
    const std::string &s;
    std::size_t i = 0;
    bool ok = true;

    void ws()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }
    bool eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }
    std::string string()
    {
        std::string out;
        if (!eat('"')) {
            ok = false;
            return out;
        }
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\' && i + 1 < s.size()) {
                const char e = s[i + 1];
                if (e == 'u' && i + 5 < s.size()) {
                    out += '?'; // escaped code point: presence suffices
                    i += 6;
                    continue;
                }
                out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
                i += 2;
                continue;
            }
            out += s[i++];
        }
        if (!eat('"'))
            ok = false;
        return out;
    }
    Json value()
    {
        Json v;
        ws();
        if (i >= s.size()) {
            ok = false;
            return v;
        }
        const char c = s[i];
        if (c == '{') {
            ++i;
            v.kind = Json::Obj;
            ws();
            if (eat('}'))
                return v;
            do {
                std::string key = string();
                if (!eat(':')) {
                    ok = false;
                    return v;
                }
                v.obj.emplace(std::move(key), value());
            } while (eat(','));
            if (!eat('}'))
                ok = false;
            return v;
        }
        if (c == '[') {
            ++i;
            v.kind = Json::Arr;
            ws();
            if (eat(']'))
                return v;
            do {
                v.arr.push_back(value());
            } while (eat(','));
            if (!eat(']'))
                ok = false;
            return v;
        }
        if (c == '"') {
            v.kind = Json::Str;
            v.str = string();
            return v;
        }
        if (s.compare(i, 4, "true") == 0) {
            v.kind = Json::Bool;
            v.b = true;
            i += 4;
            return v;
        }
        if (s.compare(i, 5, "false") == 0) {
            v.kind = Json::Bool;
            i += 5;
            return v;
        }
        if (s.compare(i, 4, "null") == 0) {
            i += 4;
            return v;
        }
        v.kind = Json::Num;
        std::size_t n = 0;
        v.num = std::stod(s.substr(i), &n);
        ok = ok && n > 0;
        i += n;
        return v;
    }
};

TEST(Analyze, SarifReportMatchesTheSarif210Structure)
{
    const auto findings = analyzeTrees({SHRIMP_ANALYZE_FIXTURES});
    ASSERT_FALSE(findings.empty());
    const std::string text = sarifReport(findings, "src", {});

    JsonParser p{text};
    const Json doc = p.value();
    p.ws();
    ASSERT_TRUE(p.ok && p.i == text.size())
        << "SARIF output is not well-formed JSON";
    ASSERT_EQ(doc.kind, Json::Obj);

    EXPECT_NE(doc["$schema"].str.find("sarif-2.1.0"), std::string::npos);
    EXPECT_EQ(doc["version"].str, "2.1.0");

    ASSERT_EQ(doc["runs"].kind, Json::Arr);
    ASSERT_EQ(doc["runs"].arr.size(), 1u);
    const Json &run = doc["runs"].at(0);

    const Json &driver = run["tool"]["driver"];
    EXPECT_EQ(driver["name"].str, "shrimp_analyze");
    ASSERT_EQ(driver["rules"].kind, Json::Arr);
    ASSERT_FALSE(driver["rules"].arr.empty());
    std::vector<std::string> ruleIds;
    for (const Json &r : driver["rules"].arr) {
        EXPECT_FALSE(r["id"].str.empty());
        EXPECT_FALSE(r["shortDescription"]["text"].str.empty());
        ruleIds.push_back(r["id"].str);
    }

    ASSERT_EQ(run["results"].kind, Json::Arr);
    ASSERT_EQ(run["results"].arr.size(), findings.size());
    for (std::size_t k = 0; k < findings.size(); ++k) {
        const Json &res = run["results"].at(k);
        const Finding &f = findings[k];

        EXPECT_EQ(res["ruleId"].str, f.rule);
        ASSERT_EQ(res["ruleIndex"].kind, Json::Num);
        const std::size_t ri = std::size_t(res["ruleIndex"].num);
        ASSERT_LT(ri, ruleIds.size());
        EXPECT_EQ(ruleIds[ri], f.rule);

        EXPECT_FALSE(res["level"].str.empty());
        EXPECT_FALSE(res["message"]["text"].str.empty());

        const Json &loc =
            res["locations"].at(0)["physicalLocation"];
        EXPECT_EQ(loc["artifactLocation"]["uri"].str, "src/" + f.file);
        EXPECT_EQ(int(loc["region"]["startLine"].num), f.line);

        EXPECT_EQ(res["partialFingerprints"]["shrimpAnalyze/v1"].str,
                  f.rule + "|" + f.file + "|" + f.fingerprint);
    }
}

TEST(Analyze, SarifDriverDescribesExactlyTheEmittedRules)
{
    // The fixture corpus hits every rule (FixtureCorpusCoversEveryRule),
    // so its findings name every rule the analyzer can emit.
    const auto findings = analyzeTrees({SHRIMP_ANALYZE_FIXTURES});
    std::set<std::string> emitted;
    for (const Finding &f : findings)
        emitted.insert(f.rule);

    const std::string text = sarifReport({}, "src", {});
    JsonParser p{text};
    const Json doc = p.value();
    ASSERT_TRUE(p.ok);
    std::set<std::string> ids;
    for (const Json &r :
         doc["runs"].at(0)["tool"]["driver"]["rules"].arr)
        ids.insert(r["id"].str);
    EXPECT_EQ(ids, emitted);
}

TEST(Analyze, SarifDriverDescribesTheOwnershipRules)
{
    const auto findings = analyzeTrees({SHRIMP_ANALYZE_FIXTURES});
    const std::string text = sarifReport(findings, "src", {});
    JsonParser p{text};
    const Json doc = p.value();
    ASSERT_TRUE(p.ok);

    // shared-mutable-static is the one ownership rule left; its text
    // names the allowlist spelling and the Machines that share the
    // storage. The two cross-shard rules are retired.
    std::map<std::string, std::string> descs;
    for (const Json &r :
         doc["runs"].at(0)["tool"]["driver"]["rules"].arr)
        descs[r["id"].str] = r["shortDescription"]["text"].str;
    ASSERT_EQ(descs.count("shared-mutable-static"), 1u);
    const std::string &desc = descs.at("shared-mutable-static");
    EXPECT_NE(desc.find("allow(shared-mutable-static)"), std::string::npos)
        << desc;
    EXPECT_NE(desc.find("Machine"), std::string::npos) << desc;
    EXPECT_EQ(descs.count("cross-node-escape"), 0u);
    EXPECT_EQ(descs.count("event-capture-escape"), 0u);
}

// ---------------------------------------------------------------------
// CLI: an output file that cannot be written is an I/O error (exit 2),
// never a silent success.

struct CliResult
{
    int status = -1;
    std::string output; //!< stdout and stderr, interleaved
};

CliResult
runCli(const std::string &args)
{
    CliResult r;
    const std::string cmd =
        std::string(SHRIMP_ANALYZE_BIN) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return r;
    char buf[512];
    while (fgets(buf, sizeof buf, pipe) != nullptr)
        r.output += buf;
    const int raw = pclose(pipe);
    r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return r;
}

/** A path whose parent directory does not exist. */
std::string
unwritablePath(const std::string &file)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "shrimp_analyze_no_such_dir";
    fs::remove_all(dir);
    return (dir / file).string();
}

TEST(Analyze, CliExitsTwoWhenTheReportIsUnwritable)
{
    const std::string path = unwritablePath("r.txt");
    const CliResult r = runCli("--report=" + path + " " +
                               SHRIMP_ANALYZE_FIXTURES);
    EXPECT_EQ(r.status, 2) << r.output;
    EXPECT_NE(r.output.find("cannot write " + path), std::string::npos)
        << r.output;
}

TEST(Analyze, CliExitsTwoWhenTheSarifIsUnwritable)
{
    const std::string path = unwritablePath("s.sarif");
    const CliResult r = runCli("--sarif=" + path + " " +
                               SHRIMP_ANALYZE_FIXTURES);
    EXPECT_EQ(r.status, 2) << r.output;
    EXPECT_NE(r.output.find("cannot write " + path), std::string::npos)
        << r.output;
}

} // namespace
} // namespace shrimp::analyze
