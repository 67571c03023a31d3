/**
 * @file
 * Tick-accurate tracing keyed off the simulated clock.
 *
 * Components register a *track* (one row in the viewer: a CPU, a NIC
 * datapath block, a bus, a daemon, a library instance) and record span
 * begin/end pairs and instant events against it, passing the current
 * simulated tick explicitly. The Tracer buffers events in memory and
 * can emit them as Chrome trace-event JSON, loadable in Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing; each track appears as
 * a named thread.
 *
 * Tracing is off by default: every recording call first checks a single
 * global flag (see on()), so an instrumented simulation pays one
 * predictable branch per event when disabled. Enable at runtime with
 * parseCliFlags() (--trace=<file>), setEnabled(), or the SHRIMP_TRACE
 * environment variable (see applyEnvOverrides() in base/config.hh).
 *
 * When a trace *file* is requested, each event queue also samples the
 * busy/occupancy/queue/drop stat counters and its own pending count
 * every samplePeriod of its simulated time (sampleCounters()). Changed
 * values are written as Chrome counter events ("ph":"C"), which
 * Perfetto draws as counter tracks under the spans. Sampling only
 * reads state, so it never perturbs the simulation, and samples stay
 * out of hash().
 *
 * Determinism: events are stored in recording order and timestamps are
 * simulated ticks, so two identical runs emit byte-identical JSON (the
 * EventQueue's sequence-number tie-breaking fixes the order of events
 * that share a tick).
 */

#ifndef SHRIMP_BASE_TRACE_HH
#define SHRIMP_BASE_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hh"

namespace shrimp::stats
{
class Counter;
} // namespace shrimp::stats

namespace shrimp::trace
{

using TrackId = std::uint32_t;

namespace detail
{
extern bool gEnabled;
extern bool gSampling;
} // namespace detail

/** Fast global check compiled into every recording call site. */
inline bool on() { return detail::gEnabled; }

/** Whether event queues sample counters: on exactly while a trace
 *  file is requested (setOutputPath()). */
inline bool sampling() { return detail::gSampling; }

/** Simulated time between two counter samples of one event queue. */
constexpr Tick samplePeriod = 10 * units::us;

class Tracer
{
  public:
    /** Event phases, mirroring the Chrome trace-event "ph" field. */
    enum class Phase : std::uint8_t
    {
        Begin,     //!< "B": span start
        End,       //!< "E": span end
        Instant,   //!< "i": point event
        FlowStart, //!< "s": causal flow origin (base/span.hh)
        FlowStep,  //!< "t": causal flow waypoint
        FlowEnd,   //!< "f": causal flow terminus
    };

    struct Event
    {
        Tick tick;
        TrackId track;
        /** Event name. Must outlive the Tracer (string literals). */
        const char *name;
        Phase phase;
        /** Flow id linking FlowStart/Step/End chains; 0 otherwise. */
        std::uint64_t id = 0;
    };

    /** One sampled counter value; the track names the counter. */
    struct Sample
    {
        Tick tick;
        TrackId track;
        std::uint64_t value;
    };

    /** The process-wide tracer all instrumentation records into. */
    static Tracer &instance();

    /** Master switch; mirrored into the on() fast-path flag. */
    void setEnabled(bool enabled);
    bool enabled() const { return detail::gEnabled; }

    /**
     * Register (or look up) the track named @p name. Track names are
     * deduplicated so components recreated across simulations (e.g. one
     * vmmc::System per benchmark point) share a row.
     */
    TrackId track(const std::string &name);

    void
    begin(TrackId t, const char *name, Tick tick)
    {
        events_.push_back(Event{tick, t, name, Phase::Begin});
    }

    void
    end(TrackId t, const char *name, Tick tick)
    {
        events_.push_back(Event{tick, t, name, Phase::End});
    }

    void
    instant(TrackId t, const char *name, Tick tick)
    {
        events_.push_back(Event{tick, t, name, Phase::Instant});
    }

    /** Record one link of a causal flow chain (see base/span.hh). All
     *  events recorded with the same @p id render as one arrow chain. */
    void
    flow(TrackId t, const char *name, Tick tick, Phase phase,
         std::uint64_t id)
    {
        events_.push_back(Event{tick, t, name, phase, id});
    }

    /**
     * Record, at @p now, @p pending as "queue.pending" and the value of
     * every live busy/occupancy/queue/drop stat counter ("group.stat")
     * that changed since its last sample. Each counter's track is
     * resolved when the stat registry changes, not on every sample.
     * Past 2M values per process, later samples are dropped with one
     * warning.
     */
    void sampleCounters(Tick now, std::size_t pending);

    const std::vector<Event> &events() const { return events_; }
    const std::vector<Sample> &samples() const { return samples_; }
    const std::string &trackName(TrackId t) const { return tracks_.at(t); }
    std::size_t numTracks() const { return tracks_.size(); }

    /**
     * FNV-1a fingerprint of the recorded event stream: tick, track
     * *name* (ids may differ across runs with different registration
     * order), event name and phase of every event, in recording order.
     * Two runs of a deterministic simulation produce equal hashes; the
     * determinism verifier (bench --check-determinism) compares them.
     */
    std::uint64_t hash() const;

    /** Drop all recorded events and samples (tracks are kept). */
    void clear() { events_.clear(); samples_.clear(); }

    /** Emit everything recorded so far as Chrome trace-event JSON. */
    void writeJson(std::ostream &os) const;

    /** writeJson() to @p path; warns and returns false on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

  private:
    std::vector<std::string> tracks_;
    std::unordered_map<std::string, TrackId> trackIds_; //!< name -> id
    //! FNV-1a of each track's name (computed once at registration):
    //! hash() mixes this 8-byte digest instead of re-hashing the name
    //! string for every event on the track.
    std::vector<std::uint64_t> trackHashes_;
    std::vector<Event> events_;
    std::vector<Sample> samples_;

    //! A counter sampleCounters() reads, its track and the value it
    //! last recorded (~0 before the first).
    struct Sampled
    {
        const stats::Counter *counter;
        TrackId track;
        std::uint64_t last;
    };
    //! Rebuilt whenever the stat registry's generation moves.
    std::vector<Sampled> sampled_;
    std::uint64_t sampledGeneration_ = ~0ull;
    TrackId pendingTrack_ = 0;
    bool capWarned_ = false;
};

/** Record an instant event if tracing is enabled. */
inline void
instant(TrackId t, const char *name, Tick tick)
{
    if (on())
        Tracer::instance().instant(t, name, tick);
}

/** Register a track on the global tracer. */
inline TrackId
track(const std::string &name)
{
    return Tracer::instance().track(name);
}

/**
 * RAII span: begins at construction, ends at destruction, reading the
 * simulated time from @p clock (anything with a now() returning Tick —
 * sim::EventQueue, sim::Simulator). Inside a coroutine the span lives
 * in the frame, so it correctly brackets suspensions.
 */
template <typename Clock>
class ScopedSpan
{
  public:
    ScopedSpan(const Clock &clock, TrackId track, const char *name)
        : clock_(clock), track_(track), name_(name), active_(on())
    {
        if (active_)
            Tracer::instance().begin(track_, name_, clock_.now());
    }

    ~ScopedSpan()
    {
        if (active_)
            Tracer::instance().end(track_, name_, clock_.now());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const Clock &clock_;
    TrackId track_;
    const char *name_;
    bool active_;
};

/**
 * Observability command-line flags, shared by the benchmarks and the
 * examples:
 *
 *   --trace=<file>   enable tracing; write Chrome trace JSON to <file>
 *                    at process exit
 *   --stats          dump the global StatRegistry (text form) to stdout
 *                    at process exit
 *
 * Recognized flags are removed from argv/argc so downstream parsers
 * (google-benchmark) never see them. Also applies the SHRIMP_*
 * environment overrides (see base/config.hh).
 */
void parseCliFlags(int &argc, char **argv);

/** Where --trace output goes ("" = tracing not requested via CLI/env).
 *  A non-empty path also turns on counter sampling. */
const std::string &outputPath();
void setOutputPath(const std::string &path);

/** Whether --stats / SHRIMP_STATS requested a stats dump at exit. */
bool statsDumpRequested();
void setStatsDumpRequested(bool v);

} // namespace shrimp::trace

#endif // SHRIMP_BASE_TRACE_HH
