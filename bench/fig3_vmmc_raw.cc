/**
 * @file
 * Figure 3: latency and bandwidth delivered by the SHRIMP VMMC layer.
 *
 * Two processes on two nodes ping-pong equally-sized messages using the
 * four transfer strategies of the paper:
 *   AU-1copy  sender copies into the AU-bound send buffer (the copy is
 *             the send); receiver consumes the data in place
 *   AU-2copy  as above, plus a receive-side copy into user memory
 *   DU-0copy  deliberate update straight from the sender's user buffer
 *             into the receiver's user buffer
 *   DU-1copy  deliberate update into a staging buffer; receiver copies
 *
 * Paper reference points: AU one-word latency 4.75 us (write-through),
 * DU one-word latency 7.6 us, DU-0copy peak bandwidth almost 23 MB/s.
 */

#include "bench_util.hh"
#include "scenarios.hh"

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);

    printBanner("Figure 3",
                "Latency and bandwidth delivered by the SHRIMP VMMC "
                "layer (raw library, 2-node ping-pong)",
                "AU 1-word 4.75 us; DU 1-word 7.6 us; DU-0copy peak "
                "~23 MB/s; AU-1copy slightly below DU-0copy at 10 KB");

    auto measureSeconds = [](const std::string &curve, std::size_t size) {
        return rawPingPong(curve, {.size = size}).seconds();
    };
    std::vector<Curve> curves =
        sweep({"AU-1copy", "AU-2copy", "DU-0copy", "DU-1copy"}, kLatSizes,
              kBwSizes, measureSeconds);
    printFigure(curves, kLatSizes, kBwSizes);
    return runGoogleBenchmarks(argc, argv, curves, kGbSizes,
                               measureSeconds);
}
