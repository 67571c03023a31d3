/**
 * @file
 * Figure 7: stream-socket latency and bandwidth.
 *
 * Two processes ping-pong over a connected stream socket using the
 * three data protocols of the paper: AU-2copy (the sender-side copy
 * acts as the send), DU-1copy (straight from user memory, alignment
 * permitting), and DU-2copy (staging copy dodges alignment).
 *
 * Paper reference points: ~13 us of library overhead above the
 * hardware limit for small messages; large-message performance close
 * to the raw one-copy limit.
 */

#include "bench_util.hh"
#include "scenarios.hh"

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);

    printBanner("Figure 7",
                "Socket latency and bandwidth (stream ping-pong)",
                "~13 us library overhead at small sizes; large "
                "messages near the raw one-copy limit");

    auto measureSeconds = [](const std::string &curve, std::size_t size) {
        return sockPingPong(curve, {.size = size}).seconds();
    };
    std::vector<Curve> curves =
        sweep({"AU-2copy", "DU-1copy", "DU-2copy"}, kLatSizes, kBwSizes,
              measureSeconds);
    printFigure(curves, kLatSizes, kBwSizes);
    return runGoogleBenchmarks(argc, argv, curves, kGbSizes,
                               measureSeconds);
}
