/**
 * @file
 * Core of shrimp_report: parse the Chrome trace-event JSON a bench run
 * writes (--trace=) into one markdown report. The trace holds one
 * process per simulated machine; its counter events carry the sampled
 * stat counters and, from a --profile run, the host profile's
 * host.<tag>.ns/.events tracks. Standard-library only (no shrimp lib)
 * so it builds anywhere the toolchain does; the core is a separate
 * library so tests/test_report.cc can drive it in-process.
 *
 * The parser targets exactly what Tracer::writeJson writes (one trace
 * event per line, fixed key order); it reads our own output format,
 * not general JSON.
 */

#ifndef SHRIMP_TOOLS_REPORT_REPORT_HH
#define SHRIMP_TOOLS_REPORT_REPORT_HH

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace shrimp::report
{

/** One trace event. Phases: B/E/i plus the span flow phases s/t/f. */
struct TraceEvent
{
    char ph = 0;
    std::string name;
    int pid = 0;
    int tid = -1;
    std::uint64_t ts_ns = 0; //!< trace "ts" is us; stored back in ns
    std::uint64_t id = 0;    //!< flow chain id (s/t/f only)
};

/** One process's counter track: its "ph":"C" samples, folded in file
 *  order. */
struct CounterTrack
{
    std::uint64_t samples = 0;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::uint64_t max = 0;
};

/** A counter track's key: (pid, counter name). */
using CounterKey = std::pair<int, std::string>;

struct TraceData
{
    std::map<int, std::string> processNames; //!< process_name metadata
    std::map<int, std::string> trackNames;   //!< thread_name metadata
    std::vector<TraceEvent> events;          //!< file order == time order
    std::map<CounterKey, CounterTrack> counters;

    const std::string &track(int tid) const;
    const std::string &process(int pid) const;
};

/** Returns false and sets @p err on malformed input. */
bool parseTrace(std::istream &in, TraceData &out, std::string &err);

/** One subsystem tag's host dispatch cost. */
struct HostCost
{
    std::string tag;
    std::uint64_t events = 0;
    std::uint64_t hostNs = 0;
};

/**
 * The host-cost rows of a --profile trace, ranked by host ns: each
 * tag's largest "host.<tag>.ns" and "host.<tag>.events" value over all
 * processes, which is its total, since the values are cumulative.
 * Empty for a trace without host tracks.
 */
std::vector<HostCost> hostCost(const TraceData &trace);

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
 * Write the markdown report; the host-cost section only for a trace
 * with host tracks. @p topN bounds the subsystem ranking, the
 * per-stage latency table and the counter table.
 */
void writeReport(std::ostream &os, const TraceData &trace, int topN);

} // namespace shrimp::report

#endif // SHRIMP_TOOLS_REPORT_REPORT_HH
