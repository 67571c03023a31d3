/**
 * @file
 * Host-side (wall-clock) performance harness. Every other bench in this
 * directory reports *simulated* time; this one measures how fast the
 * simulator itself chews through events, which is what bounds how large
 * a mesh or workload the reproduction can explore (SimBricks-style:
 * host throughput is the scaling limit of full-stack simulation).
 *
 * Six representative workloads, five of them the figure benches' own
 * scenarios (scenarios.hh) run without warm-up:
 *   vmmc_pingpong   fig3's raw VMMC DU-0copy ping-pong, 4-byte
 *                   messages — flag-poll dominated (Memory watchpoints)
 *   poll_fanout     8 service tasks poll distinct flag words while a
 *                   4 KB AU stream lands on the same node — each poller
 *                   sleeps on its own word, so the stream wakes none
 *   au_stream       fig3's AU-1copy ping-pong, 10 KB messages — each
 *                   message arrives as ~20 packet writes while the
 *                   receiver polls one word
 *   nx_exchange     fig4's 2-rank NX ping-pong (Auto), 1 KB — library
 *                   poll loops + packetization
 *   sock_stream     the ttcp one-way socket pump, 7 KB records — ring
 *                   flow control, AU combining
 *   mesh_allpairs   ablate_mesh_scale's all-pairs 1 KB NX exchange on
 *                   16 ranks (4x4) — the scaling workload
 *
 * All workloads run the figure benches' wakeup and mesh model (DESIGN.md
 * §11, §14); only node memory is trimmed (fastCfg()).
 *
 * For each workload the whole simulation is repeated until a minimum
 * wall time has elapsed; the report gives host events/sec (best rep),
 * ns/event, and peak RSS, and a JSON file (default BENCH_host_perf.json)
 * records the trajectory for CI. With --baseline=FILE the run first
 * checks that every workload did the baseline's simulated work (same
 * `events` and `simulated_ns`, same workload names) and exits 1 naming
 * any that differ; then it compares events/sec per workload and exits
 * nonzero on a regression beyond --max-regress (default 0.20). ctest's
 * host_perf.simulated_work runs only the first check (--max-regress=1).
 *
 * Wall-clock use is deliberate and confined to bench/ (src/ bans it:
 * simulated results must not depend on the host clock; host *speed*
 * measurements obviously must).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "scenarios.hh"
#include "vmmc/vmmc.hh"

namespace
{

using namespace shrimp;
using bench::Run;

// ---- workloads ------------------------------------------------------------
// Each returns the number of events the simulator processed and the
// tick at which it drained; simulated results are identical every call
// (the determinism the figure benches verify), so reps differ only in
// host time.

/** Baseline 2x2 config with node memory trimmed to 2 MiB, so each
 *  rep's fixed setup (zeroing memory, sizing the NIC page tables)
 *  doesn't drown the per-event cost being measured; the workloads touch
 *  well under 1 MiB per node. */
MachineConfig
fastCfg()
{
    MachineConfig cfg;
    cfg.nodeMemBytes = 2 * units::MiB;
    return cfg;
}

/** Wakeup-storm fan-out: 8 service tasks on node 1 each poll their own
 *  flag word while the peer streams 4 KB of AU data (~8 packet writes)
 *  into a bulk buffer on the same node every round, then taps each
 *  flag. Models a server polling many receive buffers (NX posted
 *  receives, multi-connection sockets). Each poller sleeps on its own
 *  flag word, so the bulk stream wakes nobody. */
Run
pollFanout(int iters)
{
    constexpr int pollers = 8;
    vmmc::System sys(fastCfg());
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &a,
                       vmmc::Endpoint &b, int iters) -> sim::Task<> {
        const std::size_t bulksz = 4096;
        node::Process &pa = a.proc();
        node::Process &pb = b.proc();
        VAddr user_bulk = pa.alloc(bulksz);
        VAddr user_flag = pa.alloc(64);
        VAddr bulk = pb.alloc(bulksz, CacheMode::WriteThrough);
        VAddr flags = pb.alloc(4096, CacheMode::WriteThrough);
        vmmc::Status st = co_await b.exportBuffer(1, bulk, bulksz);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "export bulk");
        st = co_await b.exportBuffer(2, flags, 4096);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "export flags");
        auto rbulk = co_await a.import(b.nodeId(), 1);
        auto rflags = co_await a.import(b.nodeId(), 2);
        VAddr au_bulk = pa.alloc(bulksz);
        st = co_await a.bindAu(au_bulk, bulksz, rbulk.handle, 0);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "bindAu bulk");

        // Service tasks: each polls its own flag word until the final
        // round lands. waitWord32Ne tolerates the sender running ahead.
        for (int k = 0; k < pollers; ++k) {
            sys.sim().spawn([](node::Process &pb, VAddr flag,
                               std::uint32_t last_round) -> sim::Task<> {
                std::uint32_t seen = 0;
                while (seen < last_round)
                    seen = co_await pb.waitWord32Ne(flag, seen);
            }(pb, VAddr(flags + VAddr(k) * 64),
              std::uint32_t(iters)));
        }

        for (int i = 1; i <= iters; ++i) {
            co_await pa.copy(au_bulk, user_bulk, bulksz);
            pa.poke32(user_flag, std::uint32_t(i));
            for (int k = 0; k < pollers; ++k) {
                st = co_await a.send(rflags.handle,
                                     std::size_t(k) * 64, user_flag, 4);
                SHRIMP_ASSERT(st == vmmc::Status::Ok, "flag send");
            }
        }
    }(sys, a, b, iters));
    Run r;
    r.events = sys.sim().runAll();
    r.end = sys.sim().now();
    return r;
}

// ---- measurement ----------------------------------------------------------

struct Measurement
{
    std::string name;
    std::uint64_t events = 0;     //!< events per rep (identical each rep)
    Tick simulatedNs = 0;
    int reps = 0;
    double bestWallNs = 0.0;      //!< fastest rep
    double eventsPerSec = 0.0;
    double nsPerEvent = 0.0;
};

double
nowNs()
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

template <typename Fn>
Measurement
measure(const std::string &name, double min_wall_ms, Fn &&run)
{
    Measurement m;
    m.name = name;
    // One untimed warm-up rep: page in code, warm allocator pools.
    Run w = run();
    m.events = w.events;
    m.simulatedNs = w.end;

    double spent = 0.0;
    double best = 0.0;
    int reps = 0;
    while (spent < min_wall_ms * 1e6 || reps < 3) {
        double t0 = nowNs();
        w = run();
        double dt = nowNs() - t0;
        if (w.events != m.events)
            panic(name + ": event count varied between reps; "
                         "the workload is nondeterministic");
        spent += dt;
        if (best == 0.0 || dt < best)
            best = dt;
        ++reps;
    }
    m.reps = reps;
    m.bestWallNs = best;
    m.eventsPerSec = double(m.events) * 1e9 / best;
    m.nsPerEvent = best / double(m.events);
    return m;
}

long
peakRssKb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

// ---- baseline comparison --------------------------------------------------
// The JSON we emit is flat and regular (one workload object per line); a
// full parser would be overkill. Extract each object's fields by string
// scanning.

struct BaselineRow
{
    std::string name;
    std::uint64_t events = 0;
    std::uint64_t simulatedNs = 0;
    double eventsPerSec = 0.0;
};

bool
loadBaseline(const std::string &path, std::vector<BaselineRow> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);

    std::size_t pos = 0;
    while ((pos = text.find("\"name\":", pos)) != std::string::npos) {
        std::size_t q1 = text.find('"', pos + 7);
        std::size_t q2 = text.find('"', q1 + 1);
        std::size_t end = text.find('}', q2);
        if (q1 == std::string::npos || q2 == std::string::npos ||
            end == std::string::npos)
            break;
        const std::string obj = text.substr(q2, end - q2);
        auto field = [&obj](const std::string &key) -> const char * {
            std::size_t k = obj.find("\"" + key + "\":");
            return k == std::string::npos ? "0"
                                          : obj.c_str() + k + key.size() + 3;
        };
        BaselineRow row;
        row.name = text.substr(q1 + 1, q2 - q1 - 1);
        row.events = std::strtoull(field("events"), nullptr, 10);
        row.simulatedNs = std::strtoull(field("simulated_ns"), nullptr, 10);
        row.eventsPerSec = std::atof(field("events_per_sec"));
        out.push_back(row);
        pos = end;
    }
    return true;
}

/** Exit-1 check: a host-only change must leave every workload's
 *  simulated work as recorded. @return the number of mismatches. */
int
checkSimulatedWork(const std::vector<BaselineRow> &base,
                   const std::vector<Measurement> &ms)
{
    int failures = 0;
    for (const BaselineRow &b : base) {
        auto m = std::find_if(ms.begin(), ms.end(),
                              [&](const Measurement &r) {
                                  return r.name == b.name;
                              });
        if (m == ms.end()) {
            std::fprintf(stderr,
                         "host_perf: baseline workload %s was not run\n",
                         b.name.c_str());
            ++failures;
            continue;
        }
        if (m->events != b.events || m->simulatedNs != b.simulatedNs) {
            std::fprintf(stderr,
                         "host_perf: %s did different simulated work: "
                         "events %llu (baseline %llu), simulated_ns %llu "
                         "(baseline %llu)\n",
                         b.name.c_str(), (unsigned long long)m->events,
                         (unsigned long long)b.events,
                         (unsigned long long)m->simulatedNs,
                         (unsigned long long)b.simulatedNs);
            ++failures;
        }
    }
    for (const Measurement &m : ms) {
        if (std::none_of(base.begin(), base.end(),
                         [&](const BaselineRow &b) {
                             return b.name == m.name;
                         })) {
            std::fprintf(stderr,
                         "host_perf: workload %s is missing from the "
                         "baseline\n",
                         m.name.c_str());
            ++failures;
        }
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_host_perf.json";
    std::string baseline_path;
    double max_regress = 0.20;
    double min_wall_ms = 300.0;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--out=", 6) == 0)
            out_path = a + 6;
        else if (std::strncmp(a, "--baseline=", 11) == 0)
            baseline_path = a + 11;
        else if (std::strncmp(a, "--max-regress=", 14) == 0)
            max_regress = std::atof(a + 14);
        else if (std::strncmp(a, "--min-wall-ms=", 14) == 0)
            min_wall_ms = std::atof(a + 14);
        else {
            std::fprintf(stderr,
                         "usage: host_perf [--out=FILE] [--baseline=FILE] "
                         "[--max-regress=F] [--min-wall-ms=MS]\n");
            return 2;
        }
    }

    std::printf("host_perf: wall-clock simulator throughput "
                "(simulated results are identical every rep)\n\n");
    std::printf("%16s %12s %14s %12s %8s %14s\n", "workload", "events",
                "events/sec", "ns/event", "reps", "simulated-ms");

    std::vector<Measurement> ms;
    auto run = [&](const std::string &name, auto &&fn) {
        Measurement m = measure(name, min_wall_ms, fn);
        std::printf("%16s %12llu %14.0f %12.1f %8d %14.3f\n",
                    m.name.c_str(), (unsigned long long)m.events,
                    m.eventsPerSec, m.nsPerEvent, m.reps,
                    double(m.simulatedNs) / 1e6);
        std::fflush(stdout);
        ms.push_back(m);
    };

    // Iteration counts are sized so per-rep System construction (zeroing
    // node memory, building NIC tables) is well under 10% of a rep: the
    // harness measures the event loop, not setup.
    MachineConfig mesh4x4 = fastCfg();
    mesh4x4.meshWidth = 4;
    mesh4x4.meshHeight = 4;
    run("vmmc_pingpong", [] {
        return bench::rawPingPong(
            "DU-0copy", {.size = 4, .warmup = 0, .iters = 1000,
                         .cfg = fastCfg()});
    });
    run("poll_fanout", [] { return pollFanout(300); });
    run("au_stream", [] {
        return bench::rawPingPong(
            "AU-1copy", {.size = 10240, .warmup = 0, .iters = 200,
                         .cfg = fastCfg()});
    });
    run("nx_exchange", [] {
        return bench::nxPingPong(
            "Auto", {.size = 1024, .warmup = 0, .iters = 400,
                     .cfg = fastCfg()});
    });
    run("sock_stream", [] {
        return bench::ttcpPump(
            {.size = 7168, .warmup = 0, .iters = 768, .cfg = fastCfg()});
    });
    run("mesh_allpairs", [&mesh4x4] {
        return bench::nxAllPairs(
            {.size = 1024, .warmup = 0, .iters = 1, .cfg = mesh4x4});
    });

    long rss_kb = peakRssKb();
    std::printf("\npeak RSS: %ld KB\n", rss_kb);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "host_perf: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    std::fprintf(f, "{\n  \"bench\": \"host_perf\",\n"
                    "  \"peak_rss_kb\": %ld,\n  \"workloads\": [\n",
                 rss_kb);
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const Measurement &m = ms[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"events\": %llu, "
            "\"events_per_sec\": %.0f, \"ns_per_event\": %.2f, "
            "\"reps\": %d, \"simulated_ns\": %llu}%s\n",
            m.name.c_str(), (unsigned long long)m.events, m.eventsPerSec,
            m.nsPerEvent, m.reps, (unsigned long long)m.simulatedNs,
            i + 1 < ms.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    if (!baseline_path.empty()) {
        std::vector<BaselineRow> base;
        if (!loadBaseline(baseline_path, base)) {
            std::fprintf(stderr, "host_perf: cannot read baseline %s\n",
                         baseline_path.c_str());
            return 2;
        }
        int failures = checkSimulatedWork(base, ms);
        for (const BaselineRow &b : base) {
            for (const Measurement &m : ms) {
                if (m.name != b.name || b.eventsPerSec <= 0.0)
                    continue;
                double ratio = m.eventsPerSec / b.eventsPerSec;
                std::printf("vs baseline %16s: %6.2fx\n", b.name.c_str(),
                            ratio);
                if (ratio < 1.0 - max_regress) {
                    std::fprintf(stderr,
                                 "host_perf: %s regressed: %.0f -> %.0f "
                                 "events/sec (%.0f%% of baseline, limit "
                                 "%.0f%%)\n",
                                 b.name.c_str(), b.eventsPerSec,
                                 m.eventsPerSec,
                                 ratio * 100.0,
                                 (1.0 - max_regress) * 100.0);
                    ++failures;
                }
            }
        }
        if (failures)
            return 1;
    }
    return 0;
}
