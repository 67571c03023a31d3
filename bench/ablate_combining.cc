/**
 * @file
 * Ablation: the NIC's automatic-update write combining (paper section
 * 3.2). The hardware can merge consecutive AU writes into one packet
 * and flush a pending packet on a timeout. This bench measures AU
 * streaming bandwidth and one-word latency with combining on and off,
 * and sweeps the flush timer.
 *
 * Expected: combining is what makes AU competitive for bulk data (one
 * packet per combine unit instead of one per store run); the flush
 * timer trades small-transfer latency against a wasted-packet risk.
 */

#include <cstdio>

#include "bench_util.hh"
#include "vmmc/vmmc.hh"

namespace
{

using namespace shrimp;

struct Result
{
    double latencyUs;   //!< one-way 4-byte latency
    double bandwidth;   //!< 8 KB streaming bandwidth
    double packets;     //!< packets injected for the 8 KB stream
};

Result
runOnce(bool combining, Tick timeout, std::size_t combine_limit = 0)
{
    MachineConfig cfg;
    cfg.auCombineTimeout = timeout;
    if (combine_limit) {
        cfg.auCombineLimit = combine_limit;
        cfg.maxPacketBytes = std::max(cfg.maxPacketBytes, combine_limit);
    }
    vmmc::System sys(cfg);
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    Result res{};

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &a,
                       vmmc::Endpoint &b, bool combining,
                       Result &res) -> sim::Task<> {
        const std::size_t bufsz = 16384;
        VAddr rbuf = b.proc().alloc(bufsz, CacheMode::WriteThrough);
        co_await b.exportBuffer(7, rbuf, bufsz);
        auto r = co_await a.import(1, 7);
        VAddr au = a.proc().alloc(bufsz);
        vmmc::AuOptions opts;
        opts.combinable = combining;
        co_await a.bindAu(au, bufsz, r.handle, 0, opts);
        VAddr user = a.proc().alloc(bufsz);

        // One-word latency, averaged over 10 transfers.
        Tick t0 = sys.sim().now();
        for (std::uint32_t i = 1; i <= 10; ++i) {
            co_await a.proc().store32(au, i);
            co_await b.proc().waitWord32Eq(rbuf, i);
        }
        res.latencyUs = double(sys.sim().now() - t0) / 10.0 / 1000.0;

        // 8 KB streaming bandwidth (flag after the data).
        std::uint64_t pkts0 =
            sys.machine().node(0).nic().packetsInjected();
        t0 = sys.sim().now();
        const std::size_t len = 8192;
        for (std::uint32_t i = 1; i <= 5; ++i) {
            a.proc().poke32(VAddr(user + len - 4), i + 100);
            co_await a.proc().copy(au, user, len);
            co_await b.proc().waitWord32Eq(VAddr(rbuf + len - 4),
                                           i + 100);
        }
        double secs = double(sys.sim().now() - t0) / 1e9;
        res.bandwidth = 5.0 * len / 1e6 / secs;
        res.packets =
            double(sys.machine().node(0).nic().packetsInjected() - pkts0) /
            5.0;
    }(sys, a, b, combining, res));
    sys.sim().runAll();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);
    rejectUnparsedFlags(argc, argv);

    printBanner("Ablation: AU write combining",
                "combining on/off and flush-timer sweep (raw VMMC AU)",
                "design-choice study; section 3.2's combining + timer");

    MachineConfig defaults;
    {
        Result on = runOnce(true, defaults.auCombineTimeout);
        Result off = runOnce(false, defaults.auCombineTimeout);
        printTable("write combining (timer at default)",
                   {"combining on", "combining off"},
                   {"lat4B (us)", "BW (MB/s)", "pkts/8KB"},
                   {{on.latencyUs, on.bandwidth, on.packets},
                    {off.latencyUs, off.bandwidth, off.packets}});
    }
    {
        std::vector<std::string> rows;
        std::vector<std::vector<double>> vals;
        for (Tick t : {Tick(250), Tick(500), Tick(1050), Tick(2000),
                       Tick(4000), Tick(8000)}) {
            Result r = runOnce(true, t);
            rows.push_back(std::to_string(t) + " ns");
            vals.push_back({r.latencyUs, r.bandwidth, r.packets});
        }
        printTable("flush-timer sweep (combining on)", rows,
                   {"lat4B (us)", "BW (MB/s)", "pkts/8KB"}, vals);
    }
    {
        // Combine-unit sweep: smaller units mean more packets and more
        // per-packet receive overhead for the same stream.
        std::vector<std::string> rows;
        std::vector<std::vector<double>> vals;
        for (std::size_t lim : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
            Result r = runOnce(true, defaults.auCombineTimeout, lim);
            rows.push_back(std::to_string(lim) + " B");
            vals.push_back({r.latencyUs, r.bandwidth, r.packets});
        }
        printTable("combine-unit (outgoing FIFO) sweep", rows,
                   {"lat4B (us)", "BW (MB/s)", "pkts/8KB"}, vals);
    }
    return 0;
}
