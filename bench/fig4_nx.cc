/**
 * @file
 * Figure 4: NX message-passing latency and bandwidth.
 *
 * Two NX processes ping-pong typed messages. The five curves follow the
 * paper's variants:
 *   AU-1copy  sender marshals into the AU-bound area (the copy is the
 *             send); receiver consumes the data in place
 *   AU-2copy  as above, with the normal copying receive
 *   DU-0copy  the zero-copy large-message protocol (scout + reply +
 *             direct user-to-user deliberate update)
 *   DU-1copy  data sent straight from user memory, descriptor by a
 *             second deliberate update; copying receive
 *   DU-2copy  data and descriptor marshalled and sent with a single
 *             deliberate update; copying receive
 *
 * Paper reference points: ~6 us above the hardware limit for small AU
 * messages; DU-1copy above DU-2copy at small sizes (the copy is cheaper
 * than the extra send) with a crossover as size grows; a bump where the
 * protocol switches; large-message performance approaching the raw
 * hardware limit.
 */

#include <cstdio>

#include "bench_util.hh"
#include "scenarios.hh"

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);

    printBanner("Figure 4",
                "NX latency and bandwidth (2-process ping-pong)",
                "small AU ~6 us over hardware; 1copy-vs-2copy send "
                "trade-off crossover; bump at the protocol switch; "
                "large messages approach the raw hardware limit");

    auto measureSeconds = [](const std::string &curve, std::size_t size) {
        return nxPingPong(curve, {.size = size}).seconds();
    };
    std::vector<Curve> curves =
        sweep({"AU-1copy", "AU-2copy", "DU-0copy", "DU-1copy", "DU-2copy"},
              kLatSizes, kBwSizes, measureSeconds);
    printFigure(curves, kLatSizes, kBwSizes);

    // The "Auto" protocol the library ships with: shows the bump where
    // the small-message protocol hands over to the zero-copy protocol.
    const std::vector<std::size_t> auto_sizes{256,  512,  768,  1024,
                                              1280, 1536, 2048, 4096};
    std::vector<Curve> auto_curve =
        sweep({"Auto"}, {}, auto_sizes, measureSeconds);
    std::printf("default protocol (small -> zero-copy switch at "
                "1 KB):\n");
    printFigure(auto_curve, {}, auto_sizes);

    // Auto's golden rows straddle NxOptions::largeThreshold (1 KB).
    curves.push_back(std::move(auto_curve.front()));
    return runGoogleBenchmarks(argc, argv, curves, {4, 1024, 1280, 10240},
                               measureSeconds);
}
