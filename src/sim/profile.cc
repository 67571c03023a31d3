#include "sim/profile.hh"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/logging.hh"

namespace shrimp::sim::profile
{

namespace detail
{
std::uint8_t gCurrent = 0;
bool gTiming = false;
} // namespace detail

namespace
{

std::array<Row, numSubsys> gRows{};
std::size_t gMaxPending = 0;
std::uint64_t gPendingSum = 0;
std::uint64_t gDispatches = 0;
std::string gPath;

void
atExitDump()
{
    if (gPath.empty() || gDispatches == 0)
        return;
    if (writeJsonFile(gPath))
        std::fprintf(stderr, "profile: wrote %s\n", gPath.c_str());
}

void
installAtExit()
{
    // analyze: allow(shared-mutable-static) — std::atexit registration
    // latch, per-process by nature
    static bool installed = false;
    if (!installed) {
        installed = true;
        std::atexit(atExitDump);
    }
}

} // namespace

const char *
name(Subsys s)
{
    switch (s) {
      case Subsys::Other:
        return "other";
      case Subsys::Cpu:
        return "cpu";
      case Subsys::Bus:
        return "bus";
      case Subsys::Mesh:
        return "mesh";
      case Subsys::Router:
        return "router";
      case Subsys::Packetizer:
        return "packetizer";
      case Subsys::Nic:
        return "nic";
      case Subsys::Du:
        return "du";
      case Subsys::Dma:
        return "dma";
      case Subsys::Notify:
        return "notify";
      case Subsys::Ether:
        return "ether";
      case Subsys::NumSubsys:
        break;
    }
    return "?";
}

void
setTiming(bool on)
{
    detail::gTiming = on;
}

void
setOutputPath(const std::string &path)
{
    gPath = path;
    if (!path.empty()) {
        setTiming(true);
        installAtExit();
    }
}

const std::string &
outputPath()
{
    return gPath;
}

std::uint64_t
hostNow()
{
    // analyze: allow(determinism) — host-side profiling clock, opt-in
    // via --profile only; readings are accumulated off to the side and
    // never feed simulated state.
    using Clock = std::chrono::steady_clock;
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now().time_since_epoch())
                             .count());
}

void
recordDispatch(Subsys s, std::uint64_t host_ns, std::size_t pending)
{
    Row &r = gRows[std::size_t(s) % numSubsys];
    ++r.events;
    r.hostNs += host_ns;
    ++gDispatches;
    gPendingSum += pending;
    if (pending > gMaxPending)
        gMaxPending = pending;
}

const Row &
row(Subsys s)
{
    return gRows[std::size_t(s) % numSubsys];
}

void
writeJson(std::ostream &os)
{
    std::uint64_t total_ns = 0;
    std::uint64_t total_events = 0;
    for (const Row &r : gRows) {
        total_ns += r.hostNs;
        total_events += r.events;
    }

    // Rank by host cost, stable on the enum order for ties.
    std::array<std::size_t, numSubsys> order{};
    for (std::size_t i = 0; i < numSubsys; ++i)
        order[i] = i;
    for (std::size_t i = 1; i < numSubsys; ++i) {
        for (std::size_t j = i;
             j > 0 && gRows[order[j]].hostNs > gRows[order[j - 1]].hostNs;
             --j)
            std::swap(order[j], order[j - 1]);
    }

    const double avg_pending =
        gDispatches ? double(gPendingSum) / double(gDispatches) : 0.0;
    char buf[64];
    os << "{\n  \"events_total\": " << total_events
       << ",\n  \"host_ns_total\": " << total_ns
       << ",\n  \"queue\": {\"max_pending\": " << gMaxPending
       << ", \"avg_pending\": ";
    std::snprintf(buf, sizeof(buf), "%.2f", avg_pending);
    os << buf << "},\n  \"subsystems\": [\n";
    bool first = true;
    for (std::size_t idx : order) {
        const Row &r = gRows[idx];
        if (r.events == 0)
            continue;
        if (!first)
            os << ",\n";
        first = false;
        const double per_event =
            r.events ? double(r.hostNs) / double(r.events) : 0.0;
        std::snprintf(buf, sizeof(buf), "%.1f", per_event);
        os << "    {\"name\": \"" << name(Subsys(idx))
           << "\", \"events\": " << r.events
           << ", \"host_ns\": " << r.hostNs
           << ", \"ns_per_event\": " << buf << "}";
    }
    os << "\n  ]\n}\n";
}

bool
writeJsonFile(const std::string &path)
{
    std::ofstream f(path);
    if (!f) {
        warn(logging::format("cannot open profile output file %s",
                             path.c_str()));
        return false;
    }
    writeJson(f);
    return bool(f);
}

void
reset()
{
    detail::gTiming = false;
    detail::gCurrent = 0;
    gRows = {};
    gMaxPending = 0;
    gPendingSum = 0;
    gDispatches = 0;
}

} // namespace shrimp::sim::profile
