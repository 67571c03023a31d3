/**
 * @file
 * mesh_shift: the only workload that loads the mesh. 64 NX ranks on an
 * 8x8 mesh; each op is one seeded shift exchange: every rank r sends
 * S bytes to rank (r+k) mod 64 and receives from rank (r-k) mod 64,
 * with k in [1, 63] and S in [256 B, 4 KB] drawn per op. The op ends
 * when every receive has completed.
 *
 * Set-up runs one 4 KB shift for every k, so every connection has made
 * its first zero-copy transfer (the sender imports the receiver's
 * window over the daemons) before the first op. The shift ops hit no
 * figure anchor, so set-up ends with a calibration probe on the scaled
 * machine: three NX 4 B ping-pongs between the adjacent ranks 0 and 1,
 * read against Figure 4's small-message cost.
 */

#include <algorithm>
#include <array>
#include <cmath>

#include "nx/nx.hh"
#include "workload.hh"

namespace shrimp::bench
{
namespace
{

constexpr int meshSide = 8;
constexpr int ranks = meshSide * meshSide;
constexpr std::size_t maxMsg = 4096;
constexpr int probeRounds = 3;

struct RankState
{
    VAddr sbuf = 0, rbuf = 0;
    std::size_t got = 0;
    int from = -1;
};

sim::Task<>
shiftRank(nx::NxProc &me, RankState &st, int dest, std::size_t size)
{
    sim::Simulator &sim = me.endpoint().proc().sim();
    SpanMark m = spanBegin(sim);
    co_await me.csend(1, st.sbuf, size, dest);
    spanEnd(Call::NxCsend, m, sim);
    m = spanBegin(sim);
    st.got = co_await me.crecv(1, st.rbuf, maxMsg);
    spanEnd(Call::NxCrecv, m, sim);
    st.from = me.infonode();
}

/** Rank 0 <-> rank 1 4-byte ping-pongs; @p oneway gets each round's
 *  one-way latency. */
sim::Task<>
probe(nx::NxSystem &nxs, VAddr buf0, VAddr buf1,
      std::array<Tick, probeRounds> &oneway)
{
    nx::NxProc &a = nxs.proc(0);
    nx::NxProc &b = nxs.proc(1);
    sim::Simulator &sim = a.endpoint().proc().sim();
    for (Tick &t : oneway) {
        Tick t0 = sim.now();
        co_await a.csend(2, buf0, 4, 1);
        co_await b.crecv(2, buf1, maxMsg);
        co_await b.csend(3, buf1, 4, 0);
        co_await a.crecv(3, buf0, maxMsg);
        t = (sim.now() - t0) / 2;
    }
}

class MeshShift : public Workload
{
  public:
    explicit MeshShift(std::uint64_t seed)
        : Workload(seed), pool_(seed, 64 * 1024)
    {
    }

    std::uint64_t prefixOps() const override { return 8; }
    bool hostSpans() const override { return false; }

    void
    setup() override
    {
        sys_ = &addSystem(meshSide, meshSide);
        nx_ = std::make_unique<nx::NxSystem>(*sys_, ranks);
        SpanMark m = spanBegin(sys_->sim());
        sys_->sim().spawn(nx_->init());
        runSetup(*sys_);
        spanEnd(Call::NxInit, m, sys_->sim());
        for (int r = 0; r < ranks; ++r) {
            node::Process &proc = nx_->proc(r).endpoint().proc();
            rank_[r].sbuf = proc.alloc(maxMsg);
            rank_[r].rbuf = proc.alloc(maxMsg);
        }
        for (int k = 1; k < ranks; ++k) {
            if (!shift(~std::uint64_t(k), k, maxMsg, false))
                fatal("mesh_shift: warm-up exchange failed");
        }
        std::array<Tick, probeRounds> oneway{};
        sys_->sim().spawn(probe(*nx_, rank_[0].sbuf, rank_[1].rbuf, oneway));
        runSetup(*sys_);
        std::sort(oneway.begin(), oneway.end());
        probeUs_ = double(oneway[probeRounds / 2]) / 1e3;
    }

    bool
    runOp(std::uint64_t i) override
    {
        Rng rng(mix(seed_, i));
        int k = 1 + int(rng.below(ranks - 1));
        std::size_t size = 4 * (64 + rng.below(maxMsg / 4 - 64 + 1));
        return shift(i, k, size, true);
    }

    std::vector<AnchorResult>
    anchors() const override
    {
        return {{&anchorNxAuMesh, probeUs_,
                 std::fabs(probeUs_ - anchorNxAuMesh.paper) /
                     anchorNxAuMesh.paper * 100.0}};
    }

  private:
    /** One shift exchange with payloads keyed by @p key; @p op says
     *  whether it is an op (counted) or set-up work. */
    bool
    shift(std::uint64_t key, int k, std::size_t size, bool op)
    {
        for (int r = 0; r < ranks; ++r) {
            nx_->proc(r).endpoint().proc().poke(
                rank_[r].sbuf, pool_.slice(mix(key, r), size), size);
            rank_[r].got = 0;
            rank_[r].from = -1;
        }
        for (int r = 0; r < ranks; ++r)
            sys_->sim().spawn(shiftRank(nx_->proc(r), rank_[r],
                                        (r + k) % ranks, size));
        if (op)
            drain(*sys_);
        else
            runSetup(*sys_);
        bool ok = true;
        for (int r = 0; r < ranks && ok; ++r) {
            int src = (r - k + ranks) % ranks;
            ok = rank_[r].got == size && rank_[r].from == src &&
                 matches(nx_->proc(r).endpoint().proc(), rank_[r].rbuf,
                         pool_.slice(mix(key, src), size), size);
        }
        return ok;
    }

    PayloadPool pool_;
    vmmc::System *sys_ = nullptr;
    std::unique_ptr<nx::NxSystem> nx_;
    std::array<RankState, ranks> rank_{};
    double probeUs_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeMeshShift(std::uint64_t seed)
{
    return std::make_unique<MeshShift>(seed);
}

} // namespace shrimp::bench
