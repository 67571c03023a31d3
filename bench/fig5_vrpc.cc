/**
 * @file
 * Figure 5: VRPC (SunRPC-compatible) latency and bandwidth as a
 * function of a single argument/result size.
 *
 * A null procedure takes one opaque argument of N bytes and returns an
 * opaque result of N bytes. Curves: the stream's AU protocol (the
 * library default; the encode writes are the transfer) and the DU
 * protocol (marshal then deliberate update).
 *
 * Paper reference points: ~29 us round trip for the null call (4-byte
 * argument/result); bandwidth approaches the one-copy hardware limit
 * for large arguments.
 */

#include "bench_util.hh"
#include "scenarios.hh"

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);

    printBanner("Figure 5",
                "VRPC latency and bandwidth vs argument/result size",
                "~29 us null round trip; bandwidth approaches the "
                "one-copy limit for large arguments");

    auto measureSeconds = [](const std::string &curve, std::size_t size) {
        return vrpcNullCall(curve, {.size = size}).seconds();
    };
    // Round-trip latency per call; "bandwidth" counts the argument and
    // the result (N bytes each way per call).
    std::vector<Curve> curves = sweep({"AU-1copy", "DU-1copy"}, kLatSizes,
                                      kBwSizes, measureSeconds, true);
    printFigure(curves, kLatSizes, kBwSizes, "round-trip latency (us)");
    return runGoogleBenchmarks(argc, argv, curves, kGbSizes,
                               measureSeconds);
}
