/**
 * @file
 * Figure 8: round-trip time for a null RPC with a single INOUT
 * argument of varying size — the SunRPC-compatible VRPC versus the
 * specialized (non-compatible) SHRIMP RPC, both in their fastest
 * (one-copy automatic-update) configuration.
 *
 * Paper reference points: 9.5 us vs 29 us for small arguments (more
 * than a factor of three); roughly a factor of two for 1000-byte
 * arguments, because the specialized system's OUT values ride the
 * automatic-update hardware in the background while the server writes
 * them.
 */

#include <cstdio>

#include "bench_util.hh"
#include "scenarios.hh"

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);

    printBanner("Figure 8",
                "Null RPC round trip, single INOUT argument: "
                "SunRPC-compatible VRPC vs specialized SHRIMP RPC",
                "9.5 us vs 29 us small (>3x); ~2x at 1000 bytes");

    // Both in their fastest configuration: VRPC over the AU stream, and
    // SHRIMP RPC, whose INOUT values ride automatic update.
    auto measureSeconds = [](const std::string &curve, std::size_t size) {
        Params p{.size = size};
        return (curve == "compatible" ? vrpcNullCall("AU-1copy", p)
                                      : srpcNullCall(p))
            .seconds();
    };
    const std::vector<std::size_t> sizes{4,   100, 200, 300, 400, 500,
                                         600, 700, 800, 900, 1000};
    std::vector<Curve> curves = sweep({"compatible", "non-compat"}, sizes,
                                      {}, measureSeconds, true);
    printFigure(curves, sizes, {}, "round-trip time (us)");

    std::printf("speedup (compatible / non-compatible):\n");
    for (std::size_t s : sizes) {
        std::printf("  %5zu bytes: %.2fx\n", s,
                    curves[0].points[s].latencyUs /
                        curves[1].points[s].latencyUs);
    }
    std::printf("\n");

    return runGoogleBenchmarks(argc, argv, curves, {4, 1000},
                               measureSeconds);
}
