#include "report.hh"

#include <algorithm>
#include <cstdlib>
#include <tuple>

namespace shrimp::report
{

namespace
{

/** Extract the JSON string value following @p key in @p line; returns
 *  false if the key is absent. Understands the escapes our emitters
 *  write (\" \\ \n \uXXXX). */
bool
getString(const std::string &line, const std::string &key,
          std::string &out)
{
    std::size_t p = line.find(key);
    if (p == std::string::npos)
        return false;
    p += key.size();
    while (p < line.size() && (line[p] == ' ' || line[p] == ':'))
        ++p;
    if (p >= line.size() || line[p] != '"')
        return false;
    out.clear();
    for (++p; p < line.size() && line[p] != '"'; ++p) {
        if (line[p] == '\\' && p + 1 < line.size()) {
            ++p;
            switch (line[p]) {
              case 'n':
                out += '\n';
                break;
              case 'u':
                p += 4; // \u00xx: control chars; drop them
                break;
              default:
                out += line[p]; // \" and \\ unescape to themselves
            }
        } else {
            out += line[p];
        }
    }
    return p < line.size();
}

/** Extract the unsigned value following @p key; false if absent. */
bool
getU64(const std::string &line, const std::string &key,
       std::uint64_t &out)
{
    std::size_t p = line.find(key);
    if (p == std::string::npos)
        return false;
    p += key.size();
    while (p < line.size() && (line[p] == ' ' || line[p] == ':'))
        ++p;
    if (p >= line.size() || !std::isdigit(unsigned(line[p])))
        return false;
    out = std::strtoull(line.c_str() + p, nullptr, 10);
    return true;
}

/** Trace "ts" fields are microseconds with exactly three decimals
 *  (writeTs in base/trace.cc); recover the integer nanosecond tick. */
bool
getTsNs(const std::string &line, std::uint64_t &out)
{
    std::size_t p = line.find("\"ts\":");
    if (p == std::string::npos)
        return false;
    p += 5;
    const char *s = line.c_str() + p;
    char *end = nullptr;
    std::uint64_t us = std::strtoull(s, &end, 10);
    if (end == s)
        return false;
    std::uint64_t frac = 0;
    if (*end == '.')
        frac = std::strtoull(end + 1, nullptr, 10);
    out = us * 1000 + frac;
    return true;
}

const std::string &
nameOf(const std::map<int, std::string> &names, int key)
{
    static const std::string unknown = "?";
    auto it = names.find(key);
    return it == names.end() ? unknown : it->second;
}

std::string
fmtUs(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03u",
                  (unsigned long long)(ns / 1000), unsigned(ns % 1000));
    return buf;
}

} // namespace

const std::string &
TraceData::track(int tid) const
{
    return nameOf(trackNames, tid);
}

const std::string &
TraceData::process(int pid) const
{
    return nameOf(processNames, pid);
}

bool
parseTrace(std::istream &in, TraceData &out, std::string &err)
{
    std::string line;
    bool sawHeader = false;
    while (std::getline(in, line)) {
        if (line.find("\"traceEvents\"") != std::string::npos)
            sawHeader = true;
        std::size_t obj = line.find("{\"ph\":\"");
        if (obj == std::string::npos)
            continue;
        char ph = line[obj + 7];
        std::uint64_t pid = 0;
        if (!getU64(line, "\"pid\"", pid)) {
            err = "trace record without a pid: " + line;
            return false;
        }
        if (ph == 'C') {
            // A sampled counter: fold it into its process's track.
            std::string name;
            std::uint64_t ts = 0, value = 0;
            if (!getString(line, "\"name\"", name) || !getTsNs(line, ts) ||
                !getU64(line, "\"value\"", value)) {
                err = "malformed counter event: " + line;
                return false;
            }
            CounterTrack &c = out.counters[{int(pid), name}];
            if (c.samples++ == 0)
                c.first = value;
            c.last = value;
            c.max = std::max(c.max, value);
            continue;
        }
        if (ph == 'M') {
            // process_name names a process, thread_name a track (the
            // same tid names the same track in every process).
            std::uint64_t tid = 0;
            std::string name;
            if (!getString(line, "\"args\":{\"name\"", name))
                continue;
            if (line.find("\"process_name\"") != std::string::npos)
                out.processNames[int(pid)] = name;
            else if (line.find("\"thread_name\"") != std::string::npos &&
                     getU64(line, "\"tid\"", tid))
                out.trackNames[int(tid)] = name;
            continue;
        }
        TraceEvent e;
        e.ph = ph;
        e.pid = int(pid);
        std::uint64_t tid = 0;
        if (!getString(line, "\"name\"", e.name) ||
            !getU64(line, "\"tid\"", tid) || !getTsNs(line, e.ts_ns)) {
            err = "malformed trace event: " + line;
            return false;
        }
        e.tid = int(tid);
        getU64(line, "\"id\"", e.id); // flow events only
        out.events.push_back(std::move(e));
    }
    if (!sawHeader) {
        err = "not a trace-event JSON file (no \"traceEvents\" key)";
        return false;
    }
    return true;
}

std::vector<HostCost>
hostCost(const TraceData &trace)
{
    std::map<std::string, HostCost> byTag;
    for (const auto &[key, c] : trace.counters) {
        const std::string &name = key.second;
        if (name.rfind("host.", 0) != 0)
            continue;
        // "host.<tag>.ns" or "host.<tag>.events"
        const std::size_t dot = name.rfind('.');
        const std::string field = name.substr(dot + 1);
        HostCost &h = byTag[name.substr(5, dot - 5)];
        std::uint64_t &total = field == "ns" ? h.hostNs : h.events;
        total = std::max(total, c.max);
    }
    std::vector<HostCost> rows;
    for (auto &[tag, h] : byTag) {
        h.tag = tag;
        rows.push_back(h);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const HostCost &a, const HostCost &b) {
                         return a.hostNs > b.hostNs;
                     });
    return rows;
}

std::vector<SpanChain>
spanChains(const TraceData &trace)
{
    std::map<std::uint64_t, SpanChain> byId;
    for (const TraceEvent &e : trace.events) {
        if (e.ph != 's' && e.ph != 't' && e.ph != 'f')
            continue;
        SpanChain &c = byId[e.id];
        c.id = e.id;
        c.stages.push_back(&e);
    }
    std::vector<SpanChain> chains;
    chains.reserve(byId.size());
    for (auto &[id, c] : byId) {
        bool s = false, t = false, f = false;
        for (const TraceEvent *e : c.stages) {
            s |= e->ph == 's';
            t |= e->ph == 't';
            f |= e->ph == 'f';
        }
        c.complete = s && t && f;
        chains.push_back(std::move(c));
    }
    return chains;
}

namespace
{

/** Per-(track,name) aggregate of matched Begin/End durations. */
struct StageStat
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t minNs = ~0ull;
    std::uint64_t maxNs = 0;
};

void
writeStageLatencies(std::ostream &os, const TraceData &trace, int topN)
{
    // Match B/E pairs per (pid, tid, name) with a begin-timestamp
    // stack; events are in file order, which is emission (time) order.
    // Rows add up the machines' pairs by (track, stage).
    std::map<std::tuple<int, int, std::string>, std::vector<std::uint64_t>>
        open;
    std::map<std::pair<std::string, std::string>, StageStat> stats;
    for (const TraceEvent &e : trace.events) {
        if (e.ph == 'B') {
            open[{e.pid, e.tid, e.name}].push_back(e.ts_ns);
        } else if (e.ph == 'E') {
            auto &stack = open[{e.pid, e.tid, e.name}];
            if (stack.empty())
                continue; // unmatched End; skip
            std::uint64_t dur = e.ts_ns - stack.back();
            stack.pop_back();
            StageStat &st = stats[{trace.track(e.tid), e.name}];
            ++st.count;
            st.totalNs += dur;
            st.minNs = std::min(st.minNs, dur);
            st.maxNs = std::max(st.maxNs, dur);
        }
    }
    if (stats.empty()) {
        os << "No Begin/End pairs in the trace.\n";
        return;
    }
    std::vector<std::pair<std::pair<std::string, std::string>,
                          StageStat>>
        rows(stats.begin(), stats.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.totalNs > b.second.totalNs;
                     });
    if (int(rows.size()) > topN)
        rows.resize(topN);
    os << "| track | stage | count | total (us) | mean (us) | min (us) "
          "| max (us) |\n";
    os << "|---|---|---:|---:|---:|---:|---:|\n";
    for (const auto &[key, st] : rows) {
        os << "| " << key.first << " | " << key.second << " | "
           << st.count << " | " << fmtUs(st.totalNs) << " | "
           << fmtUs(st.totalNs / st.count) << " | " << fmtUs(st.minNs)
           << " | " << fmtUs(st.maxNs) << " |\n";
    }
}

void
writeSpanSection(std::ostream &os, const TraceData &trace)
{
    std::vector<SpanChain> chains = spanChains(trace);
    if (chains.empty()) {
        os << "No span flow events in the trace (run with "
              "--span-sample=N).\n";
        return;
    }
    std::size_t complete = 0;
    for (const SpanChain &c : chains)
        complete += c.complete;
    os << chains.size() << " span chain(s), " << complete
       << " fully connected (origin + waypoint(s) + terminus).\n";
    const SpanChain *pick = nullptr;
    for (const SpanChain &c : chains) {
        // Longest complete chain makes the best worked example.
        if (c.complete && (!pick || c.stages.size() > pick->stages.size()))
            pick = &c;
    }
    if (!pick)
        return;
    os << "\nLongest complete chain (id " << pick->id << "):\n\n";
    os << "| stage | track | t (us) | +delta (us) |\n";
    os << "|---|---|---:|---:|\n";
    std::uint64_t prev = pick->stages.front()->ts_ns;
    for (const TraceEvent *e : pick->stages) {
        os << "| " << e->name << " | " << trace.track(e->tid) << " | "
           << fmtUs(e->ts_ns) << " | " << fmtUs(e->ts_ns - prev)
           << " |\n";
        prev = e->ts_ns;
    }
}

void
writeHostSection(std::ostream &os, const std::vector<HostCost> &rows,
                 int topN)
{
    std::uint64_t events = 0, hostNs = 0;
    for (const HostCost &r : rows) {
        events += r.events;
        hostNs += r.hostNs;
    }
    os << "Events dispatched: " << events
       << "; host time in dispatch: " << hostNs / 1000000 << " ms.\n\n";
    os << "| rank | subsystem | events | host ms | ns/event | share |\n";
    os << "|---:|---|---:|---:|---:|---:|\n";
    int rank = 0;
    for (const HostCost &r : rows) {
        if (++rank > topN)
            break;
        double share =
            hostNs ? 100.0 * double(r.hostNs) / double(hostNs) : 0.0;
        char ms[32], npe[32], pct[32];
        std::snprintf(ms, sizeof(ms), "%.2f", double(r.hostNs) / 1e6);
        std::snprintf(npe, sizeof(npe), "%.1f",
                      r.events ? double(r.hostNs) / double(r.events) : 0.0);
        std::snprintf(pct, sizeof(pct), "%.1f%%", share);
        os << "| " << rank << " | " << r.tag << " | " << r.events
           << " | " << ms << " | " << npe << " | " << pct << " |\n";
    }
}

void
writeCounterSection(std::ostream &os, const TraceData &trace, int topN)
{
    // The event queues' own pending count is a gauge, not a counter: it
    // gets its maximum, not a row. The host tracks have their own
    // section.
    std::uint64_t samples = 0, maxPending = 0;
    bool pending = false;
    using Entry = std::pair<const CounterKey, CounterTrack>;
    std::vector<std::pair<std::int64_t, const Entry *>> rows;
    for (const Entry &e : trace.counters) {
        samples += e.second.samples;
        const std::string &name = e.first.second;
        if (name == "queue.pending") {
            pending = true;
            maxPending = std::max(maxPending, e.second.max);
        } else if (name.rfind("host.", 0) != 0) {
            rows.emplace_back(std::int64_t(e.second.last - e.second.first),
                              &e);
        }
    }
    if (!pending) {
        os << "No counter events in the trace.\n";
        return;
    }
    os << samples << " counter sample(s) on " << trace.counters.size()
       << " track(s); max queue pending " << maxPending << ".\n\n";
    // Rows ranked by delta: the counters that moved most come first.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    os << "| process | counter | first | last | delta |\n";
    os << "|---|---|---:|---:|---:|\n";
    for (std::size_t i = 0; i < rows.size() && i < std::size_t(topN); ++i) {
        const auto &[key, c] = *rows[i].second;
        os << "| " << trace.process(key.first) << " | " << key.second
           << " | " << c.first << " | " << c.last << " | "
           << rows[i].first << " |\n";
    }
    if (rows.size() > std::size_t(topN))
        os << "\n" << rows.size() - topN << " more counter(s) (--top).\n";
}

} // namespace

void
writeReport(std::ostream &os, const TraceData &trace, int topN)
{
    os << "# shrimp run report\n";
    const std::vector<HostCost> host = hostCost(trace);
    if (!host.empty()) {
        os << "\n## Host-cost profile\n\n";
        writeHostSection(os, host, topN);
    }
    os << "\n## Stage latencies (trace Begin/End pairs, by total "
          "time)\n\n";
    writeStageLatencies(os, trace, topN);
    os << "\n## Span chains (sampled message flows)\n\n";
    writeSpanSection(os, trace);
    os << "\n## Counter tracks (stat counters over simulated "
          "time)\n\n";
    writeCounterSection(os, trace, topN);
}

} // namespace shrimp::report
