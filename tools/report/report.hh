/**
 * @file
 * Core of shrimp_report: parse the two observability artifacts a
 * bench run can emit — the Chrome trace-event JSON (--trace=), whose
 * counter events carry the sampled stat counters, and the host-cost
 * profile (--profile=) — and merge them into one markdown report.
 * Standard-library only (no shrimp lib) so it builds anywhere the
 * toolchain does; the core is a separate library so
 * tests/test_report.cc can drive it in-process.
 *
 * The parsers target exactly what this repo's emitters write (one trace
 * event per line, fixed key order); they are readers of our own output
 * formats, not general JSON consumers.
 */

#ifndef SHRIMP_TOOLS_REPORT_REPORT_HH
#define SHRIMP_TOOLS_REPORT_REPORT_HH

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace shrimp::report
{

/** One trace event. Phases: B/E/i plus the span flow phases s/t/f. */
struct TraceEvent
{
    char ph = 0;
    std::string name;
    int tid = -1;
    std::uint64_t ts_ns = 0; //!< trace "ts" is us; stored back in ns
    std::uint64_t id = 0;    //!< flow chain id (s/t/f only)
};

/** One counter track's "ph":"C" samples, folded in file order. */
struct CounterTrack
{
    std::uint64_t samples = 0;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::uint64_t max = 0;
};

struct TraceData
{
    std::map<int, std::string> trackNames; //!< from thread_name metadata
    std::vector<TraceEvent> events;        //!< file order == time order
    std::map<std::string, CounterTrack> counters; //!< by counter name

    const std::string &track(int tid) const;
};

/** One ranked subsystem row of profile.json. */
struct ProfileRow
{
    std::string name;
    std::uint64_t events = 0;
    std::uint64_t hostNs = 0;
};

struct ProfileData
{
    std::uint64_t eventsTotal = 0;
    std::uint64_t hostNsTotal = 0;
    std::uint64_t maxPending = 0;
    double avgPending = 0.0;
    std::vector<ProfileRow> rows; //!< already ranked by host_ns desc
};

/** Each parser returns false and sets @p err on malformed input. */
bool parseTrace(std::istream &in, TraceData &out, std::string &err);
bool parseProfile(std::istream &in, ProfileData &out, std::string &err);

/**
 * A reassembled span chain: all flow events sharing one id, in time
 * order. "Complete" means it has its origin (s), at least one waypoint
 * (t) and at least one terminus (f) — a fully connected
 * send → hop* → deliver line.
 */
struct SpanChain
{
    std::uint64_t id = 0;
    std::vector<const TraceEvent *> stages;
    bool complete = false;
};

/** Group the trace's flow events into chains, ordered by id. */
std::vector<SpanChain> spanChains(const TraceData &trace);

/**
 * Write the merged markdown report. Null section inputs are simply
 * omitted (the CLI refuses to run with zero inputs). @p topN bounds the
 * subsystem ranking, the per-stage latency table and the counter table.
 */
void writeReport(std::ostream &os, const TraceData *trace,
                 const ProfileData *profile, int topN);

} // namespace shrimp::report

#endif // SHRIMP_TOOLS_REPORT_REPORT_HH
