#include "base/trace.hh"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <utility>

#include "base/config.hh"
#include "base/logging.hh"
#include "base/stats.hh"

namespace shrimp::trace
{

namespace detail
{
bool gEnabled = false;
bool gSampling = false;
ProcessId gProcess = 0;
} // namespace detail

Tracer &
Tracer::instance()
{
    // analyze: allow(shared-mutable-static) — one trace stream per
    // process, shared by every Machine it runs
    static Tracer tracer;
    return tracer;
}

void
Tracer::setEnabled(bool enabled)
{
    detail::gEnabled = enabled;
}

TrackId
Tracer::track(const std::string &name)
{
    auto [it, fresh] = trackIds_.try_emplace(name, TrackId(tracks_.size()));
    if (!fresh)
        return it->second;
    tracks_.push_back(name);
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i <= name.size(); ++i) { // includes the NUL
        h ^= static_cast<unsigned char>(i < name.size() ? name[i] : 0);
        h *= 1099511628211ull;
    }
    trackHashes_.push_back(h);
    return TrackId(tracks_.size() - 1);
}

namespace
{

//! Bound on counter samples per process: 48 MB of samples, more than
//! 100 MB of JSON.
constexpr std::size_t maxSamples = 2'000'000;

/** Substrings of the "group.stat" names sampleCounters() records: the
 *  busy/occupancy, queue and drop counters that show pressure. */
bool
sampledCounter(const std::string &name)
{
    for (const char *sub : {"busyNs", "occupancy", "queued", "drop",
                            "Dropped", "stall", "pending", "depth"}) {
        if (name.find(sub) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

void
Tracer::sampleCounters(Tick now, std::size_t pending)
{
    const stats::StatRegistry &reg = stats::StatRegistry::global();
    if (sampledGeneration_ != reg.generation()) {
        sampledGeneration_ = reg.generation();
        sampled_.clear();
        for (const stats::Group *g : reg.groups()) {
            for (const auto &[stat, ctr] : g->counters()) {
                std::string name = g->name() + "." + stat;
                if (sampledCounter(name))
                    sampled_.push_back(Sampled{&ctr, track(name), ~0ull});
            }
        }
        pendingTrack_ = track("queue.pending");
    }
    if (samples_.size() + sampled_.size() >= maxSamples) {
        if (!capWarned_)
            warn("trace: counter sample cap reached; later samples dropped");
        capWarned_ = true;
        return;
    }
    // A counter track holds its value until the next event, so only
    // changed values are written.
    for (Sampled &c : sampled_) {
        if (c.counter->value() != c.last) {
            c.last = c.counter->value();
            samples_.push_back(Sample{now, c.track, process(), c.last});
        }
    }
    samples_.push_back(Sample{now, pendingTrack_, process(), pending});
}

void
Tracer::sample(Tick now, TrackId t, std::uint64_t value)
{
    // Within the cap, which sampleCounters() reaches first and warns of.
    if (samples_.size() < maxSamples)
        samples_.push_back(Sample{now, t, process(), value});
}

std::uint64_t
Tracer::hash() const
{
    // FNV-1a, 64-bit.
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    for (const Event &e : events_) {
        mix(&e.tick, sizeof(e.tick));
        // The track name's pre-computed digest stands in for the name
        // itself (ids may differ across runs, digests may not).
        const std::uint64_t th = trackHashes_.at(e.track);
        mix(&th, sizeof(th));
        mix(e.name, std::strlen(e.name) + 1);
        mix(&e.phase, sizeof(e.phase));
        // Flow ids participate only for flow events, so the hash of a
        // stream recorded without spans is bit-identical to what this
        // function produced before flow phases existed (the golden
        // hashes in tests/golden_trace_hashes.txt must not move).
        if (e.phase >= Phase::FlowStart)
            mix(&e.id, sizeof(e.id));
    }
    return h;
}

namespace
{

void
writeJsonString(std::ostream &os, const char *s)
{
    os << '"';
    for (; *s; ++s) {
        switch (*s) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          default:
            if (static_cast<unsigned char>(*s) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", *s);
                os << buf;
            } else {
                os << *s;
            }
        }
    }
    os << '"';
}

/** Chrome trace timestamps are microseconds; ticks are nanoseconds.
 *  Integer formatting keeps the output byte-deterministic. */
void
writeTs(std::ostream &os, Tick tick)
{
    os << tick / 1000 << '.';
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%03u", unsigned(tick % 1000));
    os << buf;
}

} // namespace

void
Tracer::writeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";

    // Name each process, and in it each track, that recorded something
    // (~0 stands for a process's counter samples, which have no track).
    // Every record after this metadata follows a comma.
    std::set<std::pair<ProcessId, TrackId>> used;
    for (const Event &e : events_)
        used.emplace(e.process, e.track);
    for (const Sample &c : samples_)
        used.emplace(c.process, ~TrackId(0));
    const char *sep = "\n";
    ProcessId named = ~ProcessId(0);
    for (const auto &[p, t] : used) {
        if (p != std::exchange(named, p)) {
            os << sep << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
               << p << ",\"args\":{\"name\":\"machine " << p << "\"}}";
            sep = ",\n";
        }
        if (t == ~TrackId(0))
            continue;
        os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << p
           << ",\"tid\":" << t << ",\"args\":{\"name\":";
        writeJsonString(os, tracks_[t].c_str());
        os << "}}";
    }

    for (const Event &e : events_) {
        os << ",\n{\"ph\":\"";
        switch (e.phase) {
          case Phase::Begin:
            os << 'B';
            break;
          case Phase::End:
            os << 'E';
            break;
          case Phase::Instant:
            os << 'i';
            break;
          case Phase::FlowStart:
            os << 's';
            break;
          case Phase::FlowStep:
            os << 't';
            break;
          case Phase::FlowEnd:
            os << 'f';
            break;
        }
        os << "\",\"name\":";
        writeJsonString(os, e.name);
        os << ",\"pid\":" << e.process << ",\"tid\":" << e.track
           << ",\"ts\":";
        writeTs(os, e.tick);
        if (e.phase == Phase::Instant)
            os << ",\"s\":\"t\"";
        if (e.phase >= Phase::FlowStart) {
            // Flow events carry the chain id; bp:"e" binds each arrow
            // endpoint to the enclosing slice so viewers draw the chain
            // through the actual spans on each track.
            os << ",\"cat\":\"span\",\"id\":" << e.id << ",\"bp\":\"e\"";
        }
        os << '}';
    }
    // Counter events carry no tid: Chrome counters belong to the
    // process, and each name becomes one counter track in it.
    for (const Sample &c : samples_) {
        os << ",\n{\"ph\":\"C\",\"name\":";
        writeJsonString(os, tracks_[c.track].c_str());
        os << ",\"pid\":" << c.process << ",\"ts\":";
        writeTs(os, c.tick);
        os << ",\"args\":{\"value\":" << c.value << "}}";
    }
    os << "\n]}\n";
}

// ---- CLI / process-exit glue -------------------------------------------

namespace
{

// analyze: allow(shared-mutable-static) — the run's one trace file and
// stats flag: set once from the command line, read by the exit hook
std::string gOutputPath;
bool gStatsDump = false;

void
atExitDump()
{
    if (!gOutputPath.empty()) {
        const Tracer &tracer = Tracer::instance();
        std::ofstream f(gOutputPath);
        if (f)
            tracer.writeJson(f);
        if (!f) {
            warn(logging::format("cannot write trace output file %s",
                                 gOutputPath.c_str()));
        } else {
            std::fprintf(stderr,
                         "trace: wrote %zu events and %zu counter "
                         "samples to %s\n",
                         tracer.events().size(), tracer.samples().size(),
                         gOutputPath.c_str());
        }
    }
    if (gStatsDump) {
        std::cout << "\n==== stats dump ====\n";
        stats::StatRegistry::global().dumpAll(std::cout);
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
        // Construct the singletons *before* registering the handler:
        // exit runs destructors and atexit handlers in reverse order,
        // so this keeps them alive while atExitDump reads them.
        Tracer::instance();
        stats::StatRegistry::global();
        std::atexit(atExitDump);
    }
}

} // namespace

const std::string &
outputPath()
{
    return gOutputPath;
}

void
setOutputPath(const std::string &path)
{
    gOutputPath = path;
    detail::gSampling = !path.empty();
    if (!path.empty()) {
        Tracer::instance().setEnabled(true);
        installAtExit();
    }
}

bool
statsDumpRequested()
{
    return gStatsDump;
}

void
setStatsDumpRequested(bool v)
{
    gStatsDump = v;
    if (v)
        installAtExit();
}

void
parseCliFlags(int &argc, char **argv)
{
    applyEnvOverrides();
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace=", 8) == 0) {
            setOutputPath(arg + 8);
        } else if (std::strcmp(arg, "--stats") == 0) {
            setStatsDumpRequested(true);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
}

} // namespace shrimp::trace
