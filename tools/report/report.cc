#include "report.hh"

#include <algorithm>
#include <cstdlib>

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

bool
getDouble(const std::string &line, const std::string &key, double &out)
{
    std::size_t p = line.find(key);
    if (p == std::string::npos)
        return false;
    p += key.size();
    while (p < line.size() && (line[p] == ' ' || line[p] == ':'))
        ++p;
    if (p >= line.size())
        return false;
    out = std::strtod(line.c_str() + p, nullptr);
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
    static const std::string unknown = "?";
    auto it = trackNames.find(tid);
    return it == trackNames.end() ? unknown : it->second;
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
        if (ph == 'C') {
            // A sampled stat counter: fold it into its track.
            std::string name;
            std::uint64_t ts = 0, value = 0;
            if (!getString(line, "\"name\"", name) || !getTsNs(line, ts) ||
                !getU64(line, "\"value\"", value)) {
                err = "malformed counter event: " + line;
                return false;
            }
            CounterTrack &c = out.counters[name];
            if (c.samples++ == 0)
                c.first = value;
            c.last = value;
            c.max = std::max(c.max, value);
            continue;
        }
        if (ph == 'M') {
            // thread_name metadata names a track; ignore process_name.
            std::uint64_t tid = 0;
            std::string name;
            if (line.find("\"thread_name\"") != std::string::npos &&
                getU64(line, "\"tid\"", tid) &&
                getString(line, "\"args\":{\"name\"", name)) {
                out.trackNames[int(tid)] = name;
            }
            continue;
        }
        TraceEvent e;
        e.ph = ph;
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

bool
parseProfile(std::istream &in, ProfileData &out, std::string &err)
{
    std::string line;
    bool sawTotal = false;
    while (std::getline(in, line)) {
        if (getU64(line, "\"events_total\"", out.eventsTotal))
            sawTotal = true;
        getU64(line, "\"host_ns_total\"", out.hostNsTotal);
        getU64(line, "\"max_pending\"", out.maxPending);
        getDouble(line, "\"avg_pending\"", out.avgPending);
        ProfileRow row;
        if (line.find("{\"name\":") != std::string::npos &&
            getString(line, "\"name\"", row.name) &&
            getU64(line, "\"events\"", row.events) &&
            getU64(line, "\"host_ns\"", row.hostNs)) {
            out.rows.push_back(std::move(row));
        }
    }
    if (!sawTotal) {
        err = "not a profile.json file (no \"events_total\" key)";
        return false;
    }
    return true;
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
    // Match B/E pairs per (tid, name) with a begin-timestamp stack;
    // events are in file order, which is emission (time) order.
    std::map<std::pair<int, std::string>, std::vector<std::uint64_t>>
        open;
    std::map<std::pair<std::string, std::string>, StageStat> stats;
    for (const TraceEvent &e : trace.events) {
        if (e.ph == 'B') {
            open[{e.tid, e.name}].push_back(e.ts_ns);
        } else if (e.ph == 'E') {
            auto &stack = open[{e.tid, e.name}];
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
writeProfileSection(std::ostream &os, const ProfileData &p, int topN)
{
    os << "Events dispatched: " << p.eventsTotal
       << "; host time in dispatch: " << p.hostNsTotal / 1000000
       << " ms; queue pressure max " << p.maxPending << ", avg "
       << p.avgPending << ".\n\n";
    os << "| rank | subsystem | events | host ms | ns/event | share |\n";
    os << "|---:|---|---:|---:|---:|---:|\n";
    int rank = 0;
    for (const ProfileRow &r : p.rows) {
        if (++rank > topN)
            break;
        double share =
            p.hostNsTotal ? 100.0 * double(r.hostNs) / double(p.hostNsTotal)
                          : 0.0;
        char ms[32], npe[32], pct[32];
        std::snprintf(ms, sizeof(ms), "%.2f", double(r.hostNs) / 1e6);
        std::snprintf(npe, sizeof(npe), "%.1f",
                      r.events ? double(r.hostNs) / double(r.events) : 0.0);
        std::snprintf(pct, sizeof(pct), "%.1f%%", share);
        os << "| " << rank << " | " << r.name << " | " << r.events
           << " | " << ms << " | " << npe << " | " << pct << " |\n";
    }
}

void
writeCounterSection(std::ostream &os, const TraceData &trace, int topN)
{
    // The event queues' own pending count is a gauge, not a counter:
    // it gets its maximum, not a row.
    const auto pending = trace.counters.find("queue.pending");
    if (pending == trace.counters.end()) {
        os << "No counter events in the trace.\n";
        return;
    }
    std::uint64_t samples = 0;
    for (const auto &[name, c] : trace.counters)
        samples += c.samples;
    os << samples << " counter sample(s) on " << trace.counters.size()
       << " track(s); max queue pending " << pending->second.max
       << ".\n\n";
    // Rows ranked by delta: the counters that moved most come first.
    using Entry = std::pair<const std::string, CounterTrack>;
    std::vector<std::pair<std::int64_t, const Entry *>> rows;
    for (const Entry &e : trace.counters) {
        if (&e != &*pending)
            rows.emplace_back(std::int64_t(e.second.last - e.second.first),
                              &e);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    os << "| counter | first | last | delta |\n";
    os << "|---|---:|---:|---:|\n";
    for (std::size_t i = 0; i < rows.size() && i < std::size_t(topN); ++i) {
        const auto &[name, c] = *rows[i].second;
        os << "| " << name << " | " << c.first << " | " << c.last << " | "
           << rows[i].first << " |\n";
    }
    if (rows.size() > std::size_t(topN))
        os << "\n" << rows.size() - topN << " more counter(s) (--top).\n";
}

} // namespace

void
writeReport(std::ostream &os, const TraceData *trace,
            const ProfileData *profile, int topN)
{
    os << "# shrimp run report\n";
    if (profile) {
        os << "\n## Host-cost profile\n\n";
        writeProfileSection(os, *profile, topN);
    }
    if (trace) {
        os << "\n## Stage latencies (trace Begin/End pairs, by total "
              "time)\n\n";
        writeStageLatencies(os, *trace, topN);
        os << "\n## Span chains (sampled message flows)\n\n";
        writeSpanSection(os, *trace);
        os << "\n## Counter tracks (stat counters over simulated "
              "time)\n\n";
        writeCounterSection(os, *trace, topN);
    }
}

} // namespace shrimp::report
