#include "sim/profile.hh"

#include <array>
#include <chrono>
#include <string>

#include "base/trace.hh"

namespace shrimp::sim::profile
{

namespace detail
{
std::uint8_t gCurrent = 0;
bool gTiming = false;
} // namespace detail

namespace
{

// analyze: allow(shared-mutable-static) — the host profile accumulates
// over the whole run, across Machines, like the one trace it joins
std::array<Row, numSubsys> gRows{};

//! sample()'s counter tracks per tag (registered by its first call),
//! and the totals it last recorded.
// analyze: allow(shared-mutable-static) — see gRows
bool gTracked = false;
std::array<trace::TrackId, numSubsys> gNsTrack{}, gEventsTrack{};
std::array<Row, numSubsys> gSampled{};

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
recordDispatch(Subsys s, std::uint64_t host_ns)
{
    Row &r = gRows[std::size_t(s) % numSubsys];
    ++r.events;
    r.hostNs += host_ns;
}

const Row &
row(Subsys s)
{
    return gRows[std::size_t(s) % numSubsys];
}

void
sample(Tick now)
{
    trace::Tracer &tracer = trace::Tracer::instance();
    if (!gTracked) {
        gTracked = true;
        for (std::size_t i = 0; i < numSubsys; ++i) {
            const char *tag = name(Subsys(i));
            gNsTrack[i] = tracer.track(
                std::string("host.").append(tag).append(".ns"));
            gEventsTrack[i] = tracer.track(
                std::string("host.").append(tag).append(".events"));
        }
    }
    for (std::size_t i = 0; i < numSubsys; ++i) {
        if (gRows[i].hostNs != gSampled[i].hostNs) {
            gSampled[i].hostNs = gRows[i].hostNs;
            tracer.sample(now, gNsTrack[i], gRows[i].hostNs);
        }
        if (gRows[i].events != gSampled[i].events) {
            gSampled[i].events = gRows[i].events;
            tracer.sample(now, gEventsTrack[i], gRows[i].events);
        }
    }
}

void
reset()
{
    detail::gTiming = false;
    detail::gCurrent = 0;
    gRows = {};
    gSampled = {};
}

} // namespace shrimp::sim::profile
