/**
 * @file
 * Ablation: scaling the mesh (the paper's stated plan was to expand the
 * prototype to 16 nodes). Measures one-word and 4 KB automatic-update
 * latency versus hop count on a 4x4 mesh, an all-pairs NX exchange on
 * 4 vs 16 nodes, and a bare-mesh stride panel from 4x4 up to 32x32.
 *
 * The panel injects a fixed set of directed flows per node straight
 * into the backplane (no protocol stack): full all-pairs at 1024 nodes
 * would be ~1M packets, so each node instead sends one 256 B packet
 * along each of seven ring strides chosen to mix nearest-neighbour,
 * row-crossing and worst-case-diagonal routes. That keeps the point
 * bounded (7 * nodes packets) while still loading every link class.
 *
 * Expected: per-hop cost is tens of nanoseconds against a ~5 us
 * end-to-end path — the backplane is never the bottleneck, so the
 * expansion is cheap (the paper's premise for scaling).
 *
 * Under --check-determinism the registered points (au/<hops>,
 * allpairs/<ranks>, panel/<width>) each run twice with tracing on, and
 * --golden pins their hashes, so this binary doubles as the gate that
 * the mesh, up to the 32x32 configuration, is unchanged hop for hop.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "net/mesh.hh"
#include "scenarios.hh"
#include "sim/simulator.hh"
#include "vmmc/vmmc.hh"

namespace
{

using namespace shrimp;

double
auLatencyUs(NodeId dst, std::size_t size)
{
    MachineConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.nodeMemBytes = 2 * units::MiB;
    vmmc::System sys(cfg);
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(dst);
    Tick total = 0;

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &a,
                       vmmc::Endpoint &b, NodeId dst, std::size_t size,
                       Tick &total) -> sim::Task<> {
        std::size_t bufsz = (size + 8191) / 4096 * 4096;
        VAddr rbuf = b.proc().alloc(bufsz, CacheMode::WriteThrough);
        co_await b.exportBuffer(3, rbuf, bufsz);
        auto r = co_await a.import(dst, 3);
        VAddr au = a.proc().alloc(bufsz);
        co_await a.bindAu(au, bufsz, r.handle, 0);
        VAddr user = a.proc().alloc(bufsz);

        Tick t0 = sys.sim().now();
        for (std::uint32_t i = 1; i <= 10; ++i) {
            a.proc().poke32(VAddr(user + size - 4), i);
            co_await a.proc().copy(au, user, size);
            co_await b.proc().waitWord32Eq(VAddr(rbuf + size - 4), i);
        }
        total = sys.sim().now() - t0;
    }(sys, a, b, dst, size, total));
    sys.sim().runAll();
    return double(total) / 10.0 / 1000.0;
}

double
allPairsMs(int nprocs)
{
    // Everyone sends 1 KB to everyone (ring-shifted schedule), once.
    bench::Params p{.size = 1024, .warmup = 0, .iters = 1};
    p.cfg.meshWidth = nprocs > 4 ? 4 : 2;
    p.cfg.meshHeight = nprocs > 4 ? 4 : 2;
    p.cfg.nodeMemBytes = 2 * units::MiB;
    bench::Run r = bench::nxAllPairs(p);
    return double(r.t1 - r.t0) / 1e6;
}

/** Ring strides of the panel for an n-node mesh of width w: nearest
 *  neighbour, around a row corner, one row, just past a row, the
 *  near-diagonal half-mesh, the column complement, and the full wrap.
 *  All are nonzero mod n for every square mesh size used here. */
std::vector<int>
panelStrides(int w, int n)
{
    return {1, w - 1, w, w + 1, n / 2 - 1, n - w, n - 1};
}

double
meshPanelMs(int w)
{
    sim::Simulator s;
    MachineConfig cfg;
    cfg.meshWidth = w;
    cfg.meshHeight = w;
    net::Mesh mesh(s, cfg);
    const int n = mesh.numNodes();
    const std::vector<int> strides = panelStrides(w, n);

    // Each stride maps every source onto a distinct destination, so
    // every node ejects exactly one packet per stride.
    for (NodeId nd = 0; nd < NodeId(n); ++nd) {
        s.spawn([](net::Mesh &mesh, NodeId nd,
                   std::size_t expect) -> sim::Task<> {
            for (std::size_t i = 0; i < expect; ++i)
                co_await mesh.router(nd).ejectQueue().recv();
        }(mesh, nd, strides.size()));
    }
    for (NodeId src = 0; src < NodeId(n); ++src) {
        for (int stride : strides) {
            net::Packet p;
            p.src = src;
            p.dst = NodeId((src + stride) % n);
            p.destAddr = 0x1000 + PAddr(src) * 8;
            p.payload.assign(256, std::uint8_t(stride));
            mesh.inject(std::move(p));
        }
    }
    s.runAll();
    return double(s.now()) / 1e6;
}

/** 4x4-mesh destination at a given Manhattan distance from node 0. */
NodeId
auDstForHops(int hops)
{
    switch (hops) {
      case 1: return 1;
      case 2: return 5;
      case 4: return 10;
      default: return 15; // 6 hops
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);
    rejectUnparsedFlags(argc, argv);

    // The registered measurement set; doubles as the determinism gate.
    auto measureSeconds = [](const std::string &curve,
                             std::size_t size) -> double {
        if (curve == "au")
            return auLatencyUs(auDstForHops(int(size)), 4) * 1e-6;
        if (curve == "allpairs")
            return allPairsMs(int(size)) * 1e-3;
        return meshPanelMs(int(size)) * 1e-3; // "panel", size = width
    };
    if (checkDeterminismRequested()) {
        std::vector<Curve> curves(3);
        curves[0].name = "au";
        curves[0].points[1] = {};
        curves[0].points[6] = {};
        curves[1].name = "allpairs";
        curves[1].points[4] = {};
        curves[1].points[16] = {};
        curves[2].name = "panel";
        curves[2].points[4] = {};
        curves[2].points[8] = {};
        curves[2].points[32] = {};
        return runDeterminismCheck(curves, {1, 4, 6, 8, 16, 32},
                                   measureSeconds);
    }

    printBanner("Ablation: mesh scaling",
                "AU latency vs hop count (4x4 mesh); all-pairs NX "
                "exchange at 4 vs 16 ranks",
                "the paper's 16-node expansion plan: the backplane is "
                "never the bottleneck");

    // Node 0 is at (0,0); pick destinations at increasing Manhattan
    // distance: 1 -> 1 hop, 5 -> 2, 10 -> 4, 15 -> 6.
    std::vector<std::string> rows;
    std::vector<std::vector<double>> vals;
    for (auto [dst, hops] :
         {std::pair<NodeId, int>{1, 1}, std::pair<NodeId, int>{5, 2},
          std::pair<NodeId, int>{10, 4},
          std::pair<NodeId, int>{15, 6}}) {
        rows.push_back(std::to_string(hops) + " hop(s)");
        vals.push_back({auLatencyUs(dst, 4), auLatencyUs(dst, 4096)});
    }
    printTable("AU latency by hop count", rows,
               {"4 B (us)", "4 KB (us)"}, vals);

    double four = allPairsMs(4);
    double sixteen = allPairsMs(16);
    printTable("all-pairs 1 KB exchange + barrier",
               {"4 ranks (2x2)", "16 ranks (4x4)"}, {"time (ms)"},
               {{four}, {sixteen}});

    // Bare-mesh stride panel: 7 directed 256 B flows per node, square
    // meshes from the prototype's scale up to 32x32 (1024 nodes).
    {
        std::vector<std::string> prows;
        std::vector<std::vector<double>> pvals;
        for (int w : {4, 8, 16, 32}) {
            int n = w * w;
            double ms = meshPanelMs(w);
            prows.push_back(std::to_string(w) + "x" + std::to_string(w) +
                            " (" + std::to_string(n) + " nodes)");
            pvals.push_back(
                {ms, ms * 1e6 / double(n * panelStrides(w, n).size())});
        }
        printTable("stride panel, 7 flows/node of 256 B",
                   prows, {"time (ms)", "ns/packet"}, pvals);
    }
    return 0;
}
