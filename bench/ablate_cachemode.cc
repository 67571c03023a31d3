/**
 * @file
 * Ablation: page cache modes on the automatic-update path (paper
 * section 3.4): "4.75 usec with both sender's and receiver's memory
 * cached write-through, and 3.7 usec with caching disabled".
 */

#include <cstdio>

#include "bench_util.hh"
#include "vmmc/vmmc.hh"

namespace
{

using namespace shrimp;

double
latencyUs(CacheMode recv_mode)
{
    vmmc::System sys;
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    Tick total = 0;

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &a,
                       vmmc::Endpoint &b, CacheMode recv_mode,
                       Tick &total) -> sim::Task<> {
        VAddr rbuf = b.proc().alloc(4096, recv_mode);
        co_await b.exportBuffer(11, rbuf, 4096);
        auto r = co_await a.import(1, 11);
        VAddr au = a.proc().alloc(4096);
        co_await a.bindAu(au, 4096, r.handle, 0);
        if (recv_mode == CacheMode::Uncached)
            a.proc().as().setCacheMode(au, 4096, CacheMode::Uncached);

        Tick t0 = sys.sim().now();
        for (std::uint32_t i = 1; i <= 10; ++i) {
            co_await a.proc().store32(au, i);
            co_await b.proc().waitWord32Eq(rbuf, i);
        }
        total = sys.sim().now() - t0;
    }(sys, a, b, recv_mode, total));
    sys.sim().runAll();
    return double(total) / 10.0 / 1000.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);
    rejectUnparsedFlags(argc, argv);

    printBanner("Ablation: cache modes on the AU path",
                "one-word AU latency by receive-page cache mode",
                "4.75 us write-through vs 3.7 us uncached (sec. 3.4)");

    double wt = latencyUs(CacheMode::WriteThrough);
    double wb = latencyUs(CacheMode::WriteBack);
    double uc = latencyUs(CacheMode::Uncached);
    printTable("one-word AU latency",
               {"write-through", "write-back", "uncached"},
               {"latency (us)"}, {{wt}, {wb}, {uc}});
    return 0;
}
