/**
 * @file
 * Host-cost profiler for the event loop: where do the *host*
 * nanoseconds go, per simulated subsystem?
 *
 * Every EventNode carries a one-byte subsystem tag, stamped at schedule
 * time from a process-wide "current subsystem" that the dispatcher sets
 * from the tag of the event being run. Tags therefore flow along
 * causal chains automatically (an event scheduled while a Cpu-tagged
 * event runs is itself Cpu-tagged); components sharpen attribution with
 * retag() at coroutine resume points (top of a datapath loop body) and
 * Scope for synchronous schedule sites (a packetizer arming its flush
 * timer from inside a CPU store should not relabel the store).
 *
 * When profiling is enabled the dispatcher reads the host steady clock
 * around each callback and accumulates {events, host-ns} per subsystem.
 * The totals are process-wide (row()). A bench run with --profile also
 * writes them into its trace file: each event queue's counter sample
 * records every tag's cumulative host ns and dispatch count that
 * changed, on the counter tracks "host.<tag>.ns" and
 * "host.<tag>.events" of its trace process (sample()), and run() takes
 * one more as it returns, so the file's last values are the totals. A
 * machine's tracks hold the tags it ran, and its own host cost is a
 * track's last value minus its first.
 *
 * The clock read is the only wall-clock source in the simulator core
 * and it is fenced twice: it never runs unless --profile was given
 * (host_perf and the determinism lanes pay one predictable branch per
 * event), and bench_util refuses --profile under --check-determinism
 * (and without a trace file to hold it), so the attribution can never
 * be mistaken for simulated behavior. The profiler only *observes*
 * dispatch — tags and timings never feed back into simulated state, so
 * enabling it cannot change a trace hash.
 */

#ifndef SHRIMP_SIM_PROFILE_HH
#define SHRIMP_SIM_PROFILE_HH

#include <cstddef>
#include <cstdint>

#include "base/types.hh"

namespace shrimp::sim::profile
{

/** Who owns an event: the subsystem that scheduled it (directly or via
 *  tag inheritance along the causal chain). */
enum class Subsys : std::uint8_t
{
    Other,      //!< untagged: harness, test glue, library bookkeeping
    Cpu,        //!< CPU cost model (compute slices, poll checks)
    Bus,        //!< generic sim::Bus occupancy (EISA, memory paths)
    Mesh,       //!< mesh injection/ejection and route stepping
    Router,     //!< per-hop router forwarding and link occupancy
    Packetizer, //!< AU combining and flush timers
    Nic,        //!< NIC processor port (outgoing pump)
    Du,         //!< deliberate-update (DMA read) engine
    Dma,        //!< incoming DMA engine (receive side)
    Notify,     //!< notification delivery
    Ether,      //!< Ethernet control network
    NumSubsys,
};

constexpr std::size_t numSubsys = std::size_t(Subsys::NumSubsys);

/** Short stable name ("cpu", "mesh", ...), as in the host.<tag>.*
 *  counter tracks. */
const char *name(Subsys s);

namespace detail
{
extern std::uint8_t gCurrent;
extern bool gTiming;
} // namespace detail

/** Subsystem attributed to work scheduled right now. */
inline Subsys current() { return Subsys(detail::gCurrent); }

/** Set the current subsystem. Use at coroutine resume points (the tag
 *  sticks for the rest of the dispatched event). */
inline void retag(Subsys s) { detail::gCurrent = std::uint8_t(s); }

/** Scoped retag for synchronous schedule sites. */
class Scope
{
  public:
    explicit Scope(Subsys s) : prev_(detail::gCurrent) { retag(s); }
    ~Scope() { detail::gCurrent = prev_; }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::uint8_t prev_;
};

/** Is dispatch timing (the host clock read) active? */
inline bool timing() { return detail::gTiming; }

/** Turn dispatch timing on/off. */
void setTiming(bool on);

/** Host steady-clock nanoseconds. Only the dispatcher calls this, and
 *  only when timing() — see the file comment on determinism fencing. */
std::uint64_t hostNow();

/** Dispatcher hook: one event of subsystem @p s took @p host_ns. */
void recordDispatch(Subsys s, std::uint64_t host_ns);

/** Accumulated per-subsystem totals. */
struct Row
{
    std::uint64_t events = 0;
    std::uint64_t hostNs = 0;
};

const Row &row(Subsys s);

/** Record, at @p now, each tag's totals that changed since the last
 *  call, on the running trace process's host.<tag>.ns/.events counter
 *  tracks. Event queues call this when profiling into a trace file. */
void sample(Tick now);

/** Zero all accumulators and disable timing (tests). */
void reset();

} // namespace shrimp::sim::profile

#endif // SHRIMP_SIM_PROFILE_HH
