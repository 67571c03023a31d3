/**
 * @file
 * The ttcp experiment of paper section 4.3: one-way continuous pump
 * over a stream socket (ttcp v1.12 style), sender pushing fixed-size
 * records as fast as flow control allows.
 *
 * Paper reference points: ttcp measured 8.6 MB/s with 7 KB records (the
 * authors' own microbenchmark: 9.8 MB/s); 1.3 MB/s at 70-byte records
 * (already above Ethernet's peak).
 */

#include <cstdio>

#include "bench_util.hh"
#include "scenarios.hh"

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    parseBenchFlags(argc, argv);

    printBanner("ttcp (section 4.3)",
                "one-way socket pump, ttcp v1.12 style",
                "8.6 MB/s (ttcp) / 9.8 MB/s (microbenchmark) at 7 KB "
                "records; 1.3 MB/s at 70-byte records");

    // Each point pumps 64 records with no warm-up.
    constexpr int kRecords = 64;
    auto measureSeconds = [](const std::string &, std::size_t record) {
        return ttcpPump({.size = record, .warmup = 0, .iters = kRecords})
            .seconds();
    };
    std::vector<std::size_t> records{70, 256, 1024, 4096, 7168, 8192};
    Curve c;
    c.name = "AU-2copy";
    std::printf("\n%10s %14s\n", "record", "MB/s (one-way)");
    for (std::size_t r : records) {
        std::size_t total = kRecords * r;
        double secs = measureSeconds(c.name, r);
        double mbs = double(total) / 1e6 / secs;
        Point p;
        p.bandwidthMBs = mbs;
        p.latencyUs = secs * 1e6 / double(kRecords);
        c.points[r] = p;
        std::printf("%10zu %14.2f\n", r, mbs);
    }
    std::printf("\n");

    return runGoogleBenchmarks(argc, argv, {c}, {70, 7168},
                               measureSeconds);
}
