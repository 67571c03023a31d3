#include "base/timeseries.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/logging.hh"
#include "base/stats.hh"

namespace shrimp::timeseries
{

namespace detail
{
bool gOn = false;
Tick gNextSample = 0;
} // namespace detail

namespace
{

Tick gPeriod = 0;
std::string gPath;
std::vector<Sample> gSamples;

// Substrings selecting which "group.stat" counters a sample records.
// The defaults cover the pressure/occupancy signals the report tool
// plots: bus/link busy time, queue depths, and detector drop counts.
std::vector<std::string> gKeyFilter = {
    "busyNs", "occupied", "queued", "drop", "Dropped",
    "stall",  "pending",  "depth",
};

// Keep runaway configurations (tiny period, long run) bounded; the
// JSONL stays useful and the host heap stays sane.
constexpr std::size_t maxSamples = 200'000;

bool
keyWanted(const std::string &name)
{
    if (gKeyFilter.empty())
        return true;
    for (const std::string &sub : gKeyFilter) {
        if (name.find(sub) != std::string::npos)
            return true;
    }
    return false;
}

void
atExitDump()
{
    if (gPath.empty() || gSamples.empty())
        return;
    if (writeJsonlFile(gPath)) {
        std::fprintf(stderr, "timeseries: wrote %zu samples to %s\n",
                     gSamples.size(), gPath.c_str());
    }
}

void
installAtExit()
{
    // analyze: allow(shared-mutable-static) — std::atexit registration
    // latch, per-process by nature
    static bool installed = false;
    if (!installed) {
        installed = true;
        stats::StatRegistry::global(); // outlive the handler
        std::atexit(atExitDump);
    }
}

} // namespace

namespace detail
{

void
sampleNow(Tick now, std::size_t pending)
{
    gNextSample = now + gPeriod;
    if (gSamples.size() >= maxSamples) {
        // analyze: allow(shared-mutable-static) — one-shot warning
        // latch: one warning per process is the intent
        static bool warned = false;
        if (!warned) {
            warned = true;
            warn("timeseries: sample cap reached; later samples dropped "
                 "(raise --timeseries-period)");
        }
        return;
    }
    Sample s;
    s.tick = now;
    s.pending = pending;
    for (const stats::Group *g : stats::StatRegistry::global().groups()) {
        for (const auto &[stat, ctr] : g->counters()) {
            std::string full = g->name() + "." + stat;
            if (keyWanted(full))
                s.stats.emplace_back(std::move(full), ctr.value());
        }
    }
    gSamples.push_back(std::move(s));
}

} // namespace detail

void
configure(const std::string &path, Tick period)
{
    gPath = path;
    gPeriod = period ? period : Tick(10) * units::us;
    detail::gNextSample = 0;
    detail::gOn = true;
    if (!path.empty())
        installAtExit();
}

void
setKeyFilter(std::vector<std::string> substrings)
{
    gKeyFilter = std::move(substrings);
}

const std::vector<Sample> &
samples()
{
    return gSamples;
}

void
writeJsonl(std::ostream &os)
{
    for (const Sample &s : gSamples) {
        os << "{\"tick\":" << s.tick << ",\"pending\":" << s.pending
           << ",\"stats\":{";
        bool first = true;
        for (const auto &[name, value] : s.stats) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << name << "\":" << value;
        }
        os << "}}\n";
    }
}

bool
writeJsonlFile(const std::string &path)
{
    std::ofstream f(path);
    if (!f) {
        warn(logging::format("cannot open timeseries output file %s",
                             path.c_str()));
        return false;
    }
    writeJsonl(f);
    return bool(f);
}

void
reset()
{
    detail::gOn = false;
    detail::gNextSample = 0;
    gPeriod = 0;
    gSamples.clear();
}

} // namespace shrimp::timeseries
