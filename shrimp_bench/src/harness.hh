/**
 * @file
 * Measurement plumbing shared by the shrimp_bench workloads: the seeded
 * generator and payload pool, fixed-capacity sample stores, bench-side
 * spans around public library calls, and snapshots of the simulator's
 * own counters (StatRegistry groups and sim::profile rows).
 *
 * Everything here observes the simulated program from outside: spans
 * are recorded by the benchmark around the calls it makes, and the
 * counters are read through the library's public stats interfaces.
 */

#ifndef SHRIMP_BENCH_HARNESS_HH
#define SHRIMP_BENCH_HARNESS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/profile.hh"
#include "sim/simulator.hh"
#include "vmmc/vmmc.hh"

namespace shrimp::bench
{

/** Host steady-clock nanoseconds. */
std::uint64_t hostNow();

/**
 * Contention probe: host ns of a fixed burst of work, independent integer
 * operations (eight scalar xorshift lanes) then four 64 KB copies. It
 * runs at full speed only while no other thread shares the physical
 * core, and slows about as much as the simulator does when one does.
 */
std::uint64_t probeNs();

/** probeNs() on an idle core of the reference host (a 2.0 GHz Xeon KVM
 *  guest): host times are scaled to it. */
constexpr double probeRefNs = 50'000;

/** Median of @p v; 0 when empty. */
double median(std::vector<double> v);

/** splitmix64 finalizer: a counter-based hash, so op @e i's inputs do
 *  not depend on how many ops ran before it. */
std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0);

/** Small seeded generator over mix(). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() { return mix(state_++); }

    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/**
 * Seeded payload bytes. Every 4-byte-aligned word has its top bit
 * clear, and tags (tagOf) have it set, so a stale payload word can never
 * be mistaken for the arrival flag of a new message.
 */
class PayloadPool
{
  public:
    PayloadPool(std::uint64_t seed, std::size_t bytes);

    /** @p len bytes (a multiple of 4) at a word-aligned offset chosen by
     *  @p key. */
    const std::uint8_t *slice(std::uint64_t key, std::size_t len) const;

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Arrival flag for direction @p dir (0 = request, 1 = reply) of op
 *  @p op; unique per op and direction, top bit set. */
inline std::uint32_t
tagOf(std::uint64_t op, int dir)
{
    return 0x80000000u | std::uint32_t((op * 2 + std::uint64_t(dir)) &
                                       0x7fffffffu);
}

/**
 * Fixed-capacity sample store. Memory is reserved and touched when the
 * store is built, so a long run does not grow the process; past the
 * capacity it keeps a uniform (seeded) reservoir of exact values.
 */
class Samples
{
  public:
    explicit Samples(std::size_t capacity = 0);

    void add(double v);

    /** Interpolated quantile (@p q in [0, 1]); 0 when empty. Sorts the
     *  kept values, which leaves the sample unchanged. */
    double quantile(double q) const;

  private:
    mutable std::vector<double> v_;
    std::size_t kept_ = 0;
    std::uint64_t seen_ = 0;
    Rng rng_{0x5eed};
};

/**
 * Fixed-size histogram of positive values (op host times in µs): 128
 * buckets per octave from 2^-4 to 2^24, so a bucket is under 0.8% wide.
 * Quantiles interpolate by rank inside a bucket.
 */
class Histogram
{
  public:
    Histogram();

    void add(double v);
    Histogram &operator+=(const Histogram &o);
    void clear();

    std::uint64_t count() const { return n_; }

    /** Quantile (@p q in [0, 1]); 0 when empty. */
    double quantile(double q) const;

  private:
    std::vector<std::uint32_t> counts_;
    std::uint64_t n_ = 0;
};

/** The public library calls the benchmark wraps in spans. */
enum class Call : std::uint8_t
{
    VmmcSend,
    VmmcAuCopy,
    VmmcWait,
    VmmcExport,
    VmmcImport,
    NxCsend,
    NxCrecv,
    NxInit,
    SockSend,
    SockRecv,
    SockConnect,
    RpcCall,
    SrpcCall,
    Drain, //!< one Simulator::run() per op: the simulator itself
    NumCalls,
};

constexpr std::size_t numCalls = std::size_t(Call::NumCalls);

/** Metric prefix of a call ("vmmc.send", "nx.csend", ...). */
const char *callName(Call c);

/** One recorded span; every span of an op shares the op's id. */
struct Span
{
    std::uint64_t op = 0;
    Call call = Call::Drain;
    std::uint64_t host0 = 0, host1 = 0;
    Tick sim0 = 0, sim1 = 0;
};

/**
 * Span recorder. While installed (gTracer non-null) each wrapped call
 * records a span; each op is a root span. At the end of an op the host
 * time of the root is split exclusively: each instant goes to the
 * innermost open span (the latest-started one), the rest to the root.
 * The per-call shares therefore telescope to the op's host time.
 */
class Tracer
{
  public:
    /** @param host_spans false when several simulated tasks interleave
     *  (mesh_shift): host time per call is then meaningless and only
     *  simulated time is kept per call. */
    explicit Tracer(bool host_spans);

    void beginOp(std::uint64_t op);
    void endOp();
    void record(Call c, std::uint64_t host0, std::uint64_t host1, Tick sim0,
                Tick sim1);

    std::uint64_t ops() const { return ops_; }
    std::uint64_t calls(Call c) const { return calls_[std::size_t(c)]; }
    const Samples &hostUs(Call c) const { return hostUs_[std::size_t(c)]; }
    const Samples &simUs(Call c) const { return simUs_[std::size_t(c)]; }
    double selfHostNs(Call c) const { return selfNs_[std::size_t(c)]; }
    double rootSelfHostNs() const { return rootSelfNs_; }
    double rootHostNs() const { return rootNs_; }

    /** The first spans recorded (bounded), written to the artifact; an
     *  op's root span has call NumCalls. */
    const std::vector<Span> &kept() const { return kept_; }

  private:
    bool hostSpans_;
    std::uint64_t op_ = 0;
    std::uint64_t opHost0_ = 0;
    std::uint64_t ops_ = 0;
    std::vector<Span> current_;
    std::vector<Span> kept_;
    std::array<std::uint64_t, numCalls> calls_{};
    std::array<Samples, numCalls> hostUs_;
    std::array<Samples, numCalls> simUs_;
    std::array<double, numCalls> selfNs_{};
    double rootSelfNs_ = 0.0;
    double rootNs_ = 0.0;
};

/** Installed tracer, or null (the untraced run pays one branch). */
extern Tracer *gTracer;

/** Start of a span; inert when no tracer is installed. */
struct SpanMark
{
    std::uint64_t host0 = 0;
    Tick sim0 = 0;
};

inline SpanMark
spanBegin(sim::Simulator &s)
{
    return gTracer ? SpanMark{hostNow(), s.now()} : SpanMark{};
}

inline void
spanEnd(Call c, const SpanMark &m, sim::Simulator &s)
{
    if (gTracer)
        gTracer->record(c, m.host0, hostNow(), m.sim0, s.now());
}

/** The simulator counters the per-layer metrics read. */
enum Ctr : std::size_t
{
    CpuUses,      //!< nodeN.cpu uses
    CpuBusyNs,    //!< nodeN.cpu busyNs
    PktFormed,    //!< nodeN.nic.out packetsFormed
    DuPkts,       //!< nodeN.nic.out duPackets
    AuCombined,   //!< nodeN.nic.out writesCombined
    TimerFlushes, //!< nodeN.nic.out timerFlushes
    OptLookups,   //!< nodeN.nic optLookups
    OptHits,      //!< nodeN.nic optHits
    InBytes,      //!< nodeN.nic.in bytesDelivered
    EisaBusyNs,   //!< nodeN.eisa occupancyNs
    MeshPackets,  //!< mesh packetsInjected
    HopsCount,    //!< mesh hops distribution: samples
    HopsSum,      //!< mesh hops distribution: sum
    NxScouts,     //!< nx.rankN scouts
    ZeroFresh,    //!< mem::ZeroRegion pool: fresh mappings
    ZeroReuse,    //!< mem::ZeroRegion pool: reused mappings
    ZeroRezeroed, //!< mem::ZeroRegion pool: bytes re-zeroed
    NodeSimNs,    //!< Σ over systems of simulated ns x node count
    ProfNs,       //!< sim::profile host ns, one slot per subsystem
    NumCtr = ProfNs + sim::profile::numSubsys,
};

/** Sums of the simulator's counters over every live stat group. */
struct Counters
{
    std::array<double, NumCtr> v{};

    double operator[](std::size_t i) const { return v[i]; }
    double &operator[](std::size_t i) { return v[i]; }
    Counters &operator+=(const Counters &o);
    Counters operator-(const Counters &o) const;
};

/** Read the counters now; @p systems supply the simulated clocks. */
Counters snapshot(const std::vector<vmmc::System *> &systems);

/** Peak resident set of this process, MB. */
double peakRssMb();

} // namespace shrimp::bench

#endif // SHRIMP_BENCH_HARNESS_HH
