/**
 * @file
 * Workload: one seeded, closed-loop op stream over the shrimp stacks.
 *
 * A workload builds every System, buffer and connection in setup();
 * runOp(i) then runs op i to completion (one drain of the event loop of
 * the System the op uses) and verifies its outputs. Op i's inputs are a
 * pure function of (seed, i), so the first ops of a run are identical
 * in every run with the same seed and form its simulated fingerprint.
 */

#ifndef SHRIMP_BENCH_WORKLOAD_HH
#define SHRIMP_BENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace shrimp::bench
{

/** One row of the anchor table (anchors.cc). */
struct Anchor
{
    const char *id;
    double paper;
    const char *unit;
    const char *what;
    const char *source; //!< EXPERIMENTS.md section the value comes from
};

/** An anchor as this run simulated it. */
struct AnchorResult
{
    const Anchor *anchor;
    double simulated;
    double errPct; //!< |simulated - paper| / paper x 100
};

extern const Anchor anchorAu4;
extern const Anchor anchorDu4;
extern const Anchor anchorNxOverhead;
extern const Anchor anchorSockOverhead;
extern const Anchor anchorVrpcNull;
extern const Anchor anchorSrpcNull;
extern const Anchor anchorDu0Bandwidth;
extern const Anchor anchorNxAuMesh;

/** Every row of the anchor table, in table order. */
const std::vector<const Anchor *> &anchorTable();

class Workload
{
  public:
    explicit Workload(std::uint64_t seed) : seed_(seed) {}
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build the Systems, buffers and connections. */
    virtual void setup() = 0;

    /** Run op @p i to completion; @return true if every output of the
     *  op matched its expected value. */
    virtual bool runOp(std::uint64_t i) = 0;

    /** The paper anchors, from the anchor samples recorded so far. */
    virtual std::vector<AnchorResult> anchors() const = 0;

    /** Ops in the fingerprint prefix: they hit every anchor size. */
    virtual std::uint64_t prefixOps() const = 0;

    /** False when an op runs many simulated tasks at once (bench-side
     *  host spans per call are then meaningless). */
    virtual bool hostSpans() const { return true; }

    std::vector<vmmc::System *> systems() const;

    /** Events and simulated ns of every op drained so far. */
    std::uint64_t events() const { return events_; }
    Tick simNs() const { return simNs_; }

    /** Host ns spent inside op drains (the simulator's own time). */
    double drainHostNs() const { return drainHostNs_; }

  protected:
    /** Own a System built with the default (figure) configuration
     *  except for the mesh size. */
    vmmc::System &addSystem(int mesh_w = 2, int mesh_h = 2);

    /** Run set-up work to completion (not counted as op work). */
    void runSetup(vmmc::System &sys);

    /** One op's drain of @p sys: counted, and spanned when traced. */
    void drain(vmmc::System &sys);

    /** Record an anchor sample (kept only for the fingerprint ops, so
     *  the anchors are a deterministic function of the seed). */
    void anchorSample(std::uint64_t op, const Anchor &a, double v);

    /** Median of the samples of @p a; 0 if none. */
    double anchorMedian(const Anchor &a) const;

    /** Compare @p n bytes of simulated memory at @p addr with
     *  @p expect. */
    bool matches(node::Process &proc, VAddr addr, const std::uint8_t *expect,
                 std::size_t n);

    std::uint64_t seed_;

  private:
    std::vector<std::unique_ptr<vmmc::System>> systems_;
    std::map<const Anchor *, std::vector<double>> anchorSamples_;
    std::vector<std::uint8_t> peekBuf_;
    std::uint64_t events_ = 0;
    Tick simNs_ = 0;
    double drainHostNs_ = 0;
};

/** Build workload @p name, or null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** Names makeWorkload() accepts. */
const std::vector<std::string> &workloadNames();

} // namespace shrimp::bench

#endif // SHRIMP_BENCH_WORKLOAD_HH
