/**
 * @file
 * The experiments of the paper's evaluation, each written once. The
 * figure benches, breakdown_latency's stage attribution, host_perf's
 * throughput workloads and ablate_mesh_scale's all-pairs exchange all
 * run these loops; none keeps a private copy.
 *
 * Every scenario builds a fresh machine from Params::cfg, runs
 * Params::warmup untimed iterations and then Params::iters timed ones,
 * and returns the timed window, the tick at which the simulation
 * drained and the number of events it processed (set-up included).
 * Curve names are the figures' labels; an unknown name is fatal.
 *
 * Nothing here uses google-benchmark, so host_perf links this file
 * without bench_util.
 */

#ifndef SHRIMP_BENCH_SCENARIOS_HH
#define SHRIMP_BENCH_SCENARIOS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "base/config.hh"
#include "base/types.hh"

namespace shrimp::bench
{

/** Done-mark callback: the scenario has just reached the point named
 *  @p mark (a string literal; see each scenario) at tick @p now. */
using MarkFn = std::function<void(const char *mark, Tick now)>;

/** What every scenario takes. */
struct Params
{
    std::size_t size = 4; //!< message, argument or record bytes
    int warmup = 2;       //!< untimed iterations before the window
    int iters = 10;       //!< timed iterations
    MachineConfig cfg{};
    MarkFn mark{};        //!< optional; emits no mark when empty
};

/** What every scenario returns. */
struct Run
{
    Tick t0 = 0;              //!< window start: iteration `warmup` begins
    Tick t1 = 0;              //!< window end: the last iteration is done
    Tick end = 0;             //!< simulated time when the run drained
    std::uint64_t events = 0; //!< events processed, set-up included

    /** The timed window in simulated seconds. */
    double seconds() const { return double(t1 - t0) / 1e9; }
};

/**
 * Figure 3: raw VMMC ping-pong between nodes 0 and 1, @p curve one of
 * AU-1copy, AU-2copy, DU-0copy, DU-1copy. Marks "done.a2b" when node 1
 * holds the message and "done.b2a" when node 0 holds the reply.
 */
Run rawPingPong(const std::string &curve, const Params &p);

/**
 * Figure 4: two-rank NX ping-pong, @p curve one of the forced send
 * modes AU-1copy, AU-2copy, DU-0copy, DU-1copy, DU-2copy, or Auto (the
 * library's default protocol). Marks as rawPingPong.
 */
Run nxPingPong(const std::string &curve, const Params &p);

/**
 * Figure 5: VRPC null call whose procedure echoes a Params::size-byte
 * opaque argument, client on node 0, server on node 1, over the AU
 * (@p curve AU-1copy) or DU (DU-1copy) stream. Marks "srv.handle" when
 * the server's procedure starts and "call.done" when the call returns.
 */
Run vrpcNullCall(const std::string &curve, const Params &p);

/**
 * Figure 7: stream-socket ping-pong, client on node 0, @p curve one of
 * AU-2copy, DU-1copy, DU-2copy. Marks "done.a2b" when the server has
 * the message and "done.b2a" when the client has the reply.
 */
Run sockPingPong(const std::string &curve, const Params &p);

/**
 * Figure 8: SHRIMP RPC null call with one INOUT argument of
 * max(Params::size, 4) bytes. Marks "call.done" when a call returns.
 */
Run srpcNullCall(const Params &p);

/**
 * Section 4.3's ttcp: node 0 pumps warmup + iters records of
 * Params::size bytes one way over a stream socket. The window spans
 * the timed records' sends; the run drains after close. No marks.
 */
Run ttcpPump(const Params &p);

/**
 * NX all-pairs exchange on every node of Params::cfg's mesh: each
 * iteration, every rank sends Params::size bytes to every other rank
 * (ring-shifted), receives one message from each, and joins a barrier.
 * The window ends when the run drains. No marks.
 */
Run nxAllPairs(const Params &p);

} // namespace shrimp::bench

#endif // SHRIMP_BENCH_SCENARIOS_HH
