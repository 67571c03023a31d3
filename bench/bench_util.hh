/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks: the figures'
 * size lists and per-curve sweep, table printing in the shape of the
 * paper's figures (one latency table for small messages, one bandwidth
 * table for large messages), and google-benchmark registration glue.
 * The measurement loops themselves live in scenarios.hh.
 *
 * Every bench binary prints its figure's series as labelled rows and
 * then runs the registered google-benchmark entries (simulated time is
 * reported through manual timing).
 */

#ifndef SHRIMP_BENCH_BENCH_UTIL_HH
#define SHRIMP_BENCH_BENCH_UTIL_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "base/trace.hh"
#include "base/types.hh"

namespace shrimp::bench
{

/** One measured point of a ping-pong experiment. */
struct Point
{
    double latencyUs = 0.0;  //!< one-way latency (or round trip; noted)
    double bandwidthMBs = 0.0;
};

/** A named curve: size -> point. */
struct Curve
{
    std::string name;
    std::map<std::size_t, Point> points;
};

/** Latency-table rows of figures 3, 4, 5 and 7. */
inline const std::vector<std::size_t> kLatSizes{4, 8, 16, 32, 48, 64};

/** Bandwidth-table rows of figures 3, 4, 5 and 7. */
inline const std::vector<std::size_t> kBwSizes{256,  512,  1024,
                                               2048, 3072, 4096,
                                               6144, 8192, 10240};

/** The google-benchmark entries (and golden rows) of those figures. */
inline const std::vector<std::size_t> kGbSizes{4, 1024, 10240};

/** Print a figure banner. */
void printBanner(const std::string &figure, const std::string &title,
                 const std::string &paper_note);

/**
 * Print the two tables of a latency/bandwidth figure: latency rows for
 * @p lat_sizes and bandwidth rows for @p bw_sizes.
 */
void printFigure(const std::vector<Curve> &curves,
                 const std::vector<std::size_t> &lat_sizes,
                 const std::vector<std::size_t> &bw_sizes,
                 const std::string &lat_label = "one-way latency (us)");

/** Print a single table of values (used by the ablations). */
void printTable(const std::string &header,
                const std::vector<std::string> &row_names,
                const std::vector<std::string> &col_names,
                const std::vector<std::vector<double>> &values);

/**
 * Parse the bench-wide command-line flags, stripping recognized ones
 * from argv:
 *
 *   --check-determinism   instead of google-benchmark, run each
 *                         registered measurement twice with tracing
 *                         captured, hash the trace streams (see
 *                         trace::Tracer::hash), and fail the process
 *                         if any pair diverges
 *   --golden=FILE         also verify every point's hash against FILE
 *                         (rows "<bench> <curve>/<size> <hash16>");
 *                         a missing row or a mismatch fails the run.
 *                         Catches changes to *simulated* behaviour that
 *                         are individually deterministic. Implies
 *                         --check-determinism.
 *   --update-golden=FILE  append this binary's rows to FILE (run once
 *                         per bench to regenerate the golden set)
 *   --span-sample=N       sample every Nth message origin into a causal
 *                         flow span (base/span.hh); 0 = off (default)
 *   --profile             accumulate per-subsystem host dispatch cost
 *                         (sim/profile.hh) and write it into the trace
 *                         file as host.<tag>.* counter tracks; ignored
 *                         with a warning under --check-determinism or
 *                         without a trace file (--trace=, SHRIMP_TRACE)
 *
 * plus everything trace::parseCliFlags handles (--trace=, --stats; a
 * trace file also carries the sampled stat counters as counter
 * tracks). Every bench main calls this before doing any work, so
 * google-benchmark never sees these flags.
 */
void parseBenchFlags(int &argc, char **argv);

/** Whether --check-determinism was requested. */
bool checkDeterminismRequested();

/** A registered measurement: the simulated seconds of the timed
 *  window of @p curve at @p size. */
using MeasureFn = std::function<double(const std::string &curve,
                                       std::size_t size)>;

/**
 * The figures' per-curve sweep: measure every curve of @p names at each
 * size of @p lat_sizes and then of @p bw_sizes, where @p seconds times
 * a scenario's default Params{}.iters iterations. Each iteration is a
 * ping-pong of two one-way messages, or with @p round_trip one call
 * whose bandwidth counts the argument and the result.
 */
std::vector<Curve> sweep(const std::vector<std::string> &names,
                         const std::vector<std::size_t> &lat_sizes,
                         const std::vector<std::size_t> &bw_sizes,
                         const MeasureFn &seconds,
                         bool round_trip = false);

/**
 * Determinism verifier: run every (curve, size) measurement twice with
 * the tracer capturing, and compare the simulated duration and the
 * trace-stream hash between runs. Any divergence means the simulation
 * depends on something outside the event queue's deterministic order
 * (wall clock, rand(), unordered iteration, ...).
 * @return process exit code (0 = deterministic).
 */
int runDeterminismCheck(const std::vector<Curve> &curves,
                        const std::vector<std::size_t> &sizes,
                        MeasureFn measure_seconds);

/**
 * Register one google-benchmark entry per (curve, size) that replays a
 * measurement function and reports the simulated time via manual
 * timing, then run the benchmark library. Under --check-determinism,
 * runs the determinism verifier over the same entries instead.
 */
int runGoogleBenchmarks(int argc, char **argv,
                        const std::vector<Curve> &curves,
                        const std::vector<std::size_t> &sizes,
                        MeasureFn measure_seconds);

} // namespace shrimp::bench

#endif // SHRIMP_BENCH_BENCH_UTIL_HH
