#include "sarif.hh"

#include <cstddef>
#include <cstdio>
#include <map>
#include <sstream>

namespace shrimp::analyze
{

namespace
{

/** JSON string escaping (control chars, quotes, backslashes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** One-line rule descriptions for the tool.driver.rules table. */
const std::map<std::string, std::string> ruleDescs = {
    {"dropped-task",
     "Task-returning call whose lazy coroutine is never awaited, "
     "spawned, returned or drained"},
    {"determinism",
     "wall-clock/PRNG source or pointer-keyed iteration in the "
     "simulator core"},
    {"layering", "include-graph cycle or layer-order violation"},
    {"charged-time",
     "public datapath entry that never charges simulated time"},
    {"determinism-taint",
     "host-nondeterministic value flowing into event scheduling"},
    {"shared-mutable-static",
     "mutable static in the layered src dirs without an `analyze: "
     "allow(shared-mutable-static)` reason — storage every Machine in "
     "the process shares"},
};

} // namespace

std::string
sarifReport(const std::vector<Finding> &findings,
            const std::string &srcRootLabel,
            const std::set<std::string> &labeledRoots)
{
    // Rules actually referenced, in stable order, indexed for results.
    std::map<std::string, int> ruleIx;
    for (const auto &[name, desc] : ruleDescs)
        ruleIx.emplace(name, int(ruleIx.size()));
    for (const Finding &f : findings)
        ruleIx.emplace(f.rule, int(ruleIx.size())); // future-proofing

    std::ostringstream o;
    o << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"shrimp_analyze\",\n"
      << "          \"rules\": [\n";
    {
        std::vector<const std::string *> ordered(ruleIx.size());
        for (const auto &[name, ix] : ruleIx)
            ordered[std::size_t(ix)] = &name;
        for (std::size_t i = 0; i < ordered.size(); ++i) {
            const std::string &name = *ordered[i];
            auto dit = ruleDescs.find(name);
            const std::string desc =
                dit == ruleDescs.end() ? name : dit->second;
            o << "            {\n"
              << "              \"id\": \"" << jsonEscape(name) << "\",\n"
              << "              \"shortDescription\": { \"text\": \""
              << jsonEscape(desc) << "\" }\n"
              << "            }" << (i + 1 < ordered.size() ? "," : "")
              << "\n";
        }
    }
    o << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";

    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        std::string uri = f.file;
        const std::size_t slash = uri.find('/');
        const std::string first =
            slash == std::string::npos ? uri : uri.substr(0, slash);
        if (labeledRoots.count(first) == 0 && !srcRootLabel.empty())
            uri = srcRootLabel + "/" + uri;
        o << "        {\n"
          << "          \"ruleId\": \"" << jsonEscape(f.rule) << "\",\n"
          << "          \"ruleIndex\": " << ruleIx.at(f.rule) << ",\n"
          << "          \"level\": \"warning\",\n"
          << "          \"message\": { \"text\": \""
          << jsonEscape(f.message) << "\" },\n"
          << "          \"locations\": [\n"
          << "            {\n"
          << "              \"physicalLocation\": {\n"
          << "                \"artifactLocation\": { \"uri\": \""
          << jsonEscape(uri) << "\" },\n"
          << "                \"region\": { \"startLine\": "
          << (f.line > 0 ? f.line : 1) << " }\n"
          << "              }\n"
          << "            }\n"
          << "          ],\n"
          << "          \"partialFingerprints\": {\n"
          << "            \"shrimpAnalyze/v1\": \""
          << jsonEscape(f.rule + "|" + f.file + "|" + f.fingerprint)
          << "\"\n"
          << "          }\n"
          << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
    }

    o << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
    return o.str();
}

} // namespace shrimp::analyze
