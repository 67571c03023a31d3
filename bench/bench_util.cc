#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/logging.hh"
#include "base/span.hh"
#include "base/trace.hh"
#include "scenarios.hh"
#include "sim/profile.hh"

namespace shrimp::bench
{

namespace
{
bool gCheckDeterminism = false;
std::string gGoldenFile;       //!< verify hashes against this file
std::string gUpdateGoldenFile; //!< append this bench's hashes here
std::string gProgName;         //!< basename(argv[0]); keys golden rows

std::string
basenameOf(const char *path)
{
    const char *slash = std::strrchr(path, '/');
    return slash ? slash + 1 : path;
}
} // namespace

void
parseBenchFlags(int &argc, char **argv)
{
    gProgName = basenameOf(argv[0]);
    bool profile_requested = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check-determinism") == 0) {
            gCheckDeterminism = true;
        } else if (std::strncmp(argv[i], "--golden=", 9) == 0) {
            gGoldenFile = argv[i] + 9;
            gCheckDeterminism = true;
        } else if (std::strncmp(argv[i], "--update-golden=", 16) == 0) {
            gUpdateGoldenFile = argv[i] + 16;
            gCheckDeterminism = true;
        } else if (std::strncmp(argv[i], "--span-sample=", 14) == 0) {
            span::setSampleEvery(
                std::strtoull(argv[i] + 14, nullptr, 10));
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile_requested = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    trace::parseCliFlags(argc, argv);
    if (gCheckDeterminism)
        rejectUnparsedFlags(argc, argv);
    if (!profile_requested)
        return;
    // Host-cost profiling reads a wall clock. Readings never feed back
    // into simulated state, but the determinism lanes exist precisely to
    // certify "no wall-clock reads during simulation", so keep them pure.
    // The profile is written into the trace file, so it needs one.
    const char *refusal =
        gCheckDeterminism ? "under --check-determinism (the determinism "
                            "lane must not read the host clock)"
        : trace::outputPath().empty()
            ? "without a trace file to hold it (--trace=FILE or "
              "SHRIMP_TRACE)"
            : nullptr;
    if (refusal)
        warn(logging::format("--profile is ignored %s", refusal));
    else
        sim::profile::setTiming(true);
}

void
rejectUnparsedFlags(int argc, char **argv)
{
    bool unparsed = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_", 12) == 0)
            continue;
        // google-benchmark's wording (ReportUnrecognizedArguments).
        std::fprintf(stderr,
                     "%s: error: unrecognized command-line flag: %s\n",
                     argv[0], argv[i]);
        unparsed = true;
    }
    if (unparsed)
        std::exit(1);
}

bool
checkDeterminismRequested()
{
    return gCheckDeterminism;
}

std::vector<Curve>
sweep(const std::vector<std::string> &names,
      const std::vector<std::size_t> &lat_sizes,
      const std::vector<std::size_t> &bw_sizes, const MeasureFn &seconds,
      bool round_trip)
{
    const int iters = Params{}.iters;
    std::vector<Curve> curves;
    for (const std::string &name : names) {
        Curve c;
        c.name = name;
        for (const auto *sizes : {&lat_sizes, &bw_sizes}) {
            for (std::size_t s : *sizes) {
                double secs = seconds(name, s);
                // One-way: an iteration is two messages. Round trip: the
                // argument and the result each carry s bytes.
                double ns = secs * 1e9 / (round_trip ? iters : 2.0 * iters);
                double bytes = round_trip ? 2.0 * double(s) : double(s);
                Point &p = c.points[s];
                p.latencyUs = ns / 1000.0;
                p.bandwidthMBs = ns > 0.0 ? bytes * 1000.0 / ns : 0.0;
            }
        }
        curves.push_back(std::move(c));
    }
    return curves;
}

void
printBanner(const std::string &figure, const std::string &title,
            const std::string &paper_note)
{
    std::printf("==================================================="
                "===========\n");
    std::printf("%s — %s\n", figure.c_str(), title.c_str());
    std::printf("paper: %s\n", paper_note.c_str());
    std::printf("==================================================="
                "===========\n");
}

namespace
{

void
printOneTable(const char *what, const std::vector<Curve> &curves,
              const std::vector<std::size_t> &sizes, bool latency)
{
    if (sizes.empty())
        return;
    std::printf("\n%s\n", what);
    std::printf("%10s", "bytes");
    for (const Curve &c : curves)
        std::printf(" %12s", c.name.c_str());
    std::printf("\n");
    for (std::size_t size : sizes) {
        std::printf("%10zu", size);
        for (const Curve &c : curves) {
            auto it = c.points.find(size);
            if (it == c.points.end()) {
                std::printf(" %12s", "-");
            } else {
                std::printf(" %12.2f", latency ? it->second.latencyUs
                                               : it->second.bandwidthMBs);
            }
        }
        std::printf("\n");
    }
}

} // namespace

void
printFigure(const std::vector<Curve> &curves,
            const std::vector<std::size_t> &lat_sizes,
            const std::vector<std::size_t> &bw_sizes,
            const std::string &lat_label)
{
    printOneTable(lat_label.c_str(), curves, lat_sizes, true);
    printOneTable("bandwidth (MB/s)", curves, bw_sizes, false);
    std::printf("\n");
}

void
printTable(const std::string &header,
           const std::vector<std::string> &row_names,
           const std::vector<std::string> &col_names,
           const std::vector<std::vector<double>> &values)
{
    std::printf("\n%s\n", header.c_str());
    std::printf("%24s", "");
    for (const auto &c : col_names)
        std::printf(" %12s", c.c_str());
    std::printf("\n");
    for (std::size_t r = 0; r < row_names.size(); ++r) {
        std::printf("%24s", row_names[r].c_str());
        for (double v : values[r])
            std::printf(" %12.2f", v);
        std::printf("\n");
    }
    std::printf("\n");
}

namespace
{

/** One point's pinned trace stream: its hash and its event count. */
struct GoldenRow
{
    std::uint64_t hash = 0;
    std::size_t events = 0;
};

/** Golden rows for this binary: "curve/size" -> row. Lines are
 *  "<bench> <curve>/<size> <hash16> <events>"; other benches' rows are
 *  skipped. */
std::map<std::string, GoldenRow>
loadGolden(const std::string &path)
{
    std::map<std::string, GoldenRow> golden;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal(logging::format("cannot open golden hash file '%s'",
              path.c_str()));
    char bench[128], key[256];
    unsigned long long hash;
    std::size_t events;
    while (std::fscanf(f, "%127s %255s %llx %zu", bench, key, &hash,
                       &events) == 4) {
        if (gProgName == bench)
            golden[key] = GoldenRow{hash, events};
    }
    std::fclose(f);
    return golden;
}

} // namespace

int
runDeterminismCheck(const std::vector<Curve> &curves,
                    const std::vector<std::size_t> &sizes,
                    MeasureFn measure_seconds)
{
    auto &tracer = trace::Tracer::instance();
    bool was_enabled = tracer.enabled();
    tracer.setEnabled(true);

    std::map<std::string, GoldenRow> golden;
    if (!gGoldenFile.empty()) {
        golden = loadGolden(gGoldenFile);
        std::printf("verifying trace hashes against %zu golden row(s) "
                    "from %s\n", golden.size(), gGoldenFile.c_str());
    }
    std::FILE *update = nullptr;
    if (!gUpdateGoldenFile.empty()) {
        update = std::fopen(gUpdateGoldenFile.c_str(), "a");
        if (!update)
            fatal(logging::format(
                "cannot append to golden hash file '%s'",
                gUpdateGoldenFile.c_str()));
    }

    std::printf("determinism check: running each point twice and "
                "comparing trace-stream hashes\n");
    // Each run starts from a clean trace and a restarted span sampler
    // (origin counter, id allocator), so --span-sample picks the same
    // messages and ids in both runs of a point.
    const std::uint64_t sample_every = span::sampleEvery();
    auto fresh_run = [&tracer, sample_every] {
        tracer.clear();
        span::reset();
        span::setSampleEvery(sample_every);
    };
    int points = 0, failures = 0;
    for (const Curve &c : curves) {
        for (std::size_t size : sizes) {
            if (!c.points.count(size))
                continue;
            ++points;
            fresh_run();
            double s1 = measure_seconds(c.name, size);
            std::uint64_t h1 = tracer.hash();
            std::size_t n1 = tracer.events().size();
            fresh_run();
            double s2 = measure_seconds(c.name, size);
            std::uint64_t h2 = tracer.hash();
            std::size_t n2 = tracer.events().size();
            if (h1 != h2 || s1 != s2) {
                ++failures;
                std::printf("  %s/%zu: DIVERGED (hash %016llx vs "
                            "%016llx, %zu vs %zu events, %.9f vs %.9f "
                            "simulated seconds)\n",
                            c.name.c_str(), size,
                            (unsigned long long)h1,
                            (unsigned long long)h2, n1, n2, s1, s2);
            } else {
                std::printf("  %s/%zu: ok (hash %016llx, %zu events)\n",
                            c.name.c_str(), size,
                            (unsigned long long)h1, n1);
            }
            std::string key =
                c.name + "/" + std::to_string(size);
            if (!golden.empty() || !gGoldenFile.empty()) {
                auto it = golden.find(key);
                if (it == golden.end()) {
                    ++failures;
                    std::printf("  %s: NO GOLDEN ROW (got %016llx; "
                                "regenerate with --update-golden)\n",
                                key.c_str(), (unsigned long long)h1);
                } else if (it->second.hash != h1 ||
                           it->second.events != n1) {
                    ++failures;
                    std::printf("  %s: GOLDEN MISMATCH (golden %016llx, "
                                "%zu events vs run %016llx, %zu events) — "
                                "simulated behaviour changed\n",
                                key.c_str(),
                                (unsigned long long)it->second.hash,
                                it->second.events, (unsigned long long)h1,
                                n1);
                }
            }
            if (update)
                std::fprintf(update, "%s %s %016llx %zu\n",
                             gProgName.c_str(), key.c_str(),
                             (unsigned long long)h1, n1);
        }
    }
    if (update)
        std::fclose(update);
    tracer.clear();
    tracer.setEnabled(was_enabled);

    if (failures > 0) {
        std::printf("determinism check FAILED: %d of %d point(s) "
                    "diverged between runs\n", failures, points);
        return 1;
    }
    std::printf("determinism check passed: %d point(s), 2 runs each\n",
                points);
    return 0;
}

int
runGoogleBenchmarks(int argc, char **argv,
                    const std::vector<Curve> &curves,
                    const std::vector<std::size_t> &sizes,
                    MeasureFn measure_seconds)
{
    if (gCheckDeterminism)
        return runDeterminismCheck(curves, sizes,
                                   std::move(measure_seconds));
    for (const Curve &c : curves) {
        for (std::size_t size : sizes) {
            if (!c.points.count(size))
                continue;
            std::string name = c.name + "/" + std::to_string(size);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [measure_seconds, curve = c.name,
                 size](benchmark::State &state) {
                    for (auto _ : state) {
                        double secs = measure_seconds(curve, size);
                        state.SetIterationTime(secs);
                    }
                    state.SetBytesProcessed(
                        std::int64_t(state.iterations()) *
                        std::int64_t(size));
                })
                ->UseManualTime()
                ->Iterations(1);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace shrimp::bench
