/**
 * @file
 * Ablation: polling versus notifications (paper sections 2.3 and 6).
 * The libraries poll by preference; notifications in the prototype are
 * delivered through UNIX signals, with an active-message-style
 * reimplementation planned. This bench measures the one-word receive
 * latency under all three regimes.
 *
 * Expected: polling ~5 us; signal-based notification tens of
 * microseconds slower (which is exactly why the libraries poll);
 * the fast notification path in between.
 */

#include <cstdio>

#include "bench_util.hh"
#include "vmmc/vmmc.hh"

namespace
{

using namespace shrimp;

double
latencyUs(bool use_notification, bool fast)
{
    MachineConfig cfg;
    cfg.fastNotifications = fast;
    vmmc::System sys(cfg);
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    Tick total = 0;

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &a,
                       vmmc::Endpoint &b, bool use_notification,
                       Tick &total) -> sim::Task<> {
        VAddr rbuf;
        if (use_notification) {
            vmmc::NotifyHandler noop =
                [](vmmc::Endpoint &,
                   const vmmc::Notification &) -> sim::Task<> {
                co_return;
            };
            rbuf = b.proc().alloc(4096, CacheMode::WriteThrough);
            co_await b.exportBuffer(9, rbuf, 4096, vmmc::Perm{}, noop);
        } else {
            rbuf = b.proc().alloc(4096, CacheMode::WriteThrough);
            co_await b.exportBuffer(9, rbuf, 4096);
        }
        auto r = co_await a.import(1, 9);
        VAddr src = a.proc().alloc(4096);

        Tick t0 = sys.sim().now();
        for (std::uint32_t i = 1; i <= 10; ++i) {
            a.proc().poke32(src, i);
            co_await a.send(r.handle, 0, src, 4, use_notification);
            if (use_notification)
                co_await b.waitNotification();
            else
                co_await b.proc().waitWord32Eq(rbuf, i);
        }
        total = sys.sim().now() - t0;
    }(sys, a, b, use_notification, total));
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

    printBanner("Ablation: polling vs notification",
                "one-word receive latency by control-transfer regime",
                "the libraries poll by preference (section 6); the "
                "current notification implementation uses signals");

    double poll = latencyUs(false, false);
    double signal = latencyUs(true, false);
    double fast = latencyUs(true, true);
    printTable("one-word receive latency", 
               {"polling", "notification (signal)",
                "notification (fast)"},
               {"latency (us)"}, {{poll}, {signal}, {fast}});
    std::printf("signal / polling slowdown: %.1fx\n\n", signal / poll);
    return 0;
}
