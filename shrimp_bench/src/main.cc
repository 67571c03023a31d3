/**
 * @file
 * shrimp_bench: the repository's benchmark program.
 *
 *   shrimp_bench --workload NAME --seed N --seconds T --trace 0|1
 *                [--artifact FILE]
 *
 * A run builds the workload 9 times (set-up time is the median), runs
 * each build's fingerprint prefix and fails loudly if two builds
 * disagree on any simulated number, and after each build runs closed-loop
 * ops on it for a ninth of T seconds of host time. Host times are
 * reported in reference time, scaled by a contention probe taken every
 * few milliseconds: on a shared host a busy sibling hyperthread slows the
 * program up to 2x (shrimp_bench/NOTES.md, "Host time"). The last line
 * of stdout is one
 * JSON object: the end-to-end metrics (--trace 0), or the per-layer
 * metrics of a traced run (--trace 1). A traced run alternates
 * untraced and traced blocks of ops; the per-layer numbers come from
 * the traced blocks, host ns per event from the untraced ones.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "workload.hh"

namespace shrimp::bench
{

std::unique_ptr<Workload> makeLatencyMix(std::uint64_t seed);
std::unique_ptr<Workload> makeBulkStream(std::uint64_t seed);
std::unique_ptr<Workload> makeMeshShift(std::uint64_t seed);

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"latency_mix", "bulk_stream",
                                                "mesh_shift"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "latency_mix")
        return makeLatencyMix(seed);
    if (name == "bulk_stream")
        return makeBulkStream(seed);
    if (name == "mesh_shift")
        return makeMeshShift(seed);
    return nullptr;
}

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string artifact;
};

/** Builds per run: set-up time is their median, and a traced run
 *  alternates untraced and traced builds to compare fingerprints. Each
 *  build runs an equal slice of the timed phase before the next one, so
 *  the set-up samples spread over the whole run. */
constexpr int builds = 9;

/** A timed window closes after the op that ends windowNs after its start,
 *  or when windowMaxOps ops fill its buffer. */
constexpr std::uint64_t windowNs = 5'000'000;
constexpr std::size_t windowMaxOps = 1 << 16;

/**
 * The timed phase's host time, in reference nanoseconds. The phase is cut
 * into short windows with a contention probe at each boundary; a window's
 * time and op times are scaled by probeRefNs over the mean of its two
 * probes, so a window run while another tenant shares the core counts at
 * the speed it would have had alone (NOTES.md, "Host time").
 */
class RefTime
{
  public:
    RefTime() : opNs_(windowMaxOps, 0) {}

    /** Open a window (at the start of a build's slice). */
    void
    open()
    {
        probe0_ = probeNs();
        start_ = hostNow();
    }

    /** Count an op that took @p ns and ended at @p now; a window long
     *  enough closes and the next opens. */
    void
    op(std::uint64_t ns, std::uint64_t now)
    {
        opNs_[ops_++] = ns;
        if (ops_ == opNs_.size() || now - start_ >= windowNs)
            close(now);
    }

    /** Close the open window at @p now (early at the end of a slice). */
    void
    close(std::uint64_t now)
    {
        if (ops_ == 0)
            return;
        std::uint64_t probe1 = probeNs();
        double scale = probeRefNs / (0.5 * double(probe0_ + probe1));
        refNs_ += double(now - start_) * scale;
        hostNs_ += double(now - start_);
        for (std::size_t k = 0; k < ops_; ++k)
            us_.add(double(opNs_[k]) * scale / 1e3);
        ops_ = 0;
        probe0_ = probe1;
        start_ = hostNow();
    }

    /** Ops per reference second. */
    double opsPerS() const { return double(us_.count()) / refNs_ * 1e9; }

    /** Quantile @p q of the ops' reference-time µs. */
    double opUs(double q) const { return us_.quantile(q); }

    /** Mean slowdown the probes measured (host over reference time). */
    double slowdown() const { return hostNs_ / refNs_; }

  private:
    std::vector<std::uint64_t> opNs_;
    std::size_t ops_ = 0;
    std::uint64_t probe0_ = 0, start_ = 0;
    double refNs_ = 0, hostNs_ = 0;
    Histogram us_;
};

/** Simulated outcome of a build's fingerprint prefix. */
struct Fingerprint
{
    std::uint64_t events = 0;
    Tick simNs = 0;
    std::uint64_t failed = 0;
    std::vector<double> anchors;

    bool
    operator==(const Fingerprint &o) const
    {
        return events == o.events && simNs == o.simNs &&
               failed == o.failed && anchors == o.anchors;
    }
};

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** @p s as a quoted JSON string. */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** The result line's metrics, in the order they are put. */
class Metrics
{
  public:
    void
    put(const std::string &name, double value, const char *unit)
    {
        rows_.emplace_back(name, value, unit);
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[128];
        for (const auto &[name, v, unit] : rows_) {
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          out.size() > 1 ? ", " : "", name.c_str(),
                          std::isfinite(v) ? v : 0.0, unit);
            out += buf;
        }
        return out + "}";
    }

  private:
    std::vector<std::tuple<std::string, double, const char *>> rows_;
};

/** Ops per block in a traced run: blocks alternate untraced/traced. */
constexpr int traceBlockOps = 16;

int
run(const Options &o)
{
    std::unique_ptr<Workload> w;
    std::vector<double> setupS, prefixHost[2];
    std::optional<Tracer> setupTracer, prefixTracer, opTracer;
    Counters setupMem;
    Fingerprint fp0;
    std::uint64_t attempted = 0, failed = 0;

    // Timed-phase state, carried across the builds' slices.
    const std::uint64_t sliceNs = std::uint64_t(o.seconds * 1e9 / builds);
    RefTime ref;
    Counters traced;
    double untracedDrainNs = 0, untracedEvents = 0;
    std::uint64_t i = 0;
    std::uint64_t timedOps = 0, timedNs = 0;
    std::uint64_t block = 0;
    probeNs(); // fault in the probe's buffers before the first reading

    for (int rep = 0; rep < builds; ++rep) {
        bool tracedBuild = o.trace && rep % 2 == 1;
        w.reset();
        Counters mem0 = snapshot({});
        if (tracedBuild && !setupTracer)
            setupTracer.emplace(true);
        gTracer = tracedBuild ? &*setupTracer : nullptr;
        std::uint64_t probe0 = probeNs();
        std::uint64_t t0 = hostNow();
        w = makeWorkload(o.workload, o.seed);
        w->setup();
        std::uint64_t t1 = hostNow();
        setupS.push_back(double(t1 - t0) / 1e9 * probeRefNs /
                         (0.5 * double(probe0 + probeNs())));
        setupMem = snapshot({}) - mem0;

        if (tracedBuild && !prefixTracer)
            prefixTracer.emplace(w->hostSpans());
        gTracer = tracedBuild ? &*prefixTracer : nullptr;
        sim::profile::setTiming(tracedBuild);
        Fingerprint fp;
        std::uint64_t p0 = hostNow();
        for (std::uint64_t op = 0; op < w->prefixOps(); ++op) {
            if (tracedBuild)
                prefixTracer->beginOp(op);
            fp.failed += w->runOp(op) ? 0 : 1;
            if (tracedBuild)
                prefixTracer->endOp();
        }
        if (rep > 0)
            prefixHost[tracedBuild].push_back(double(hostNow() - p0));
        sim::profile::setTiming(false);
        gTracer = nullptr;
        attempted += w->prefixOps();
        failed += fp.failed;

        fp.events = w->events();
        fp.simNs = w->simNs();
        for (const AnchorResult &a : w->anchors())
            fp.anchors.push_back(a.simulated);
        std::fprintf(stderr,
                     "%s build %d: setup %.6f s, prefix %llu ops, "
                     "%llu events, %llu simulated ns, %llu failed%s\n",
                     o.workload.c_str(), rep, setupS.back(),
                     (unsigned long long)w->prefixOps(),
                     (unsigned long long)fp.events,
                     (unsigned long long)fp.simNs,
                     (unsigned long long)fp.failed,
                     tracedBuild ? " (traced)" : "");
        if (rep == 0) {
            fp0 = fp;
        } else if (!(fp == fp0)) {
            std::fprintf(stderr,
                         "shrimp_bench: FAIL: build %d simulated a different "
                         "fingerprint than build 0 with the same seed; the "
                         "simulation is nondeterministic\n",
                         rep);
            return 3;
        }

        // ---- this build's slice of the timed phase ----------------------
        // Op indices continue across slices, so every timed op is new.
        const std::vector<vmmc::System *> systems = w->systems();
        if (o.trace && !opTracer)
            opTracer.emplace(w->hostSpans());
        i = std::max(i, w->prefixOps());
        ref.open();
        const std::uint64_t begin = hostNow();
        const std::uint64_t deadline = begin + sliceNs;
        std::uint64_t now = begin;
        for (; now < deadline; ++block) {
            bool on = o.trace && block % 2 == 1;
            Counters c0;
            if (on) {
                c0 = snapshot(systems);
                gTracer = &*opTracer;
                sim::profile::setTiming(true);
            }
            double drain0 = w->drainHostNs();
            std::uint64_t ev0 = w->events();
            for (int k = 0; k < traceBlockOps && now < deadline; ++k) {
                if (on)
                    opTracer->beginOp(i);
                std::uint64_t t0 = hostNow();
                bool ok = w->runOp(i++);
                now = hostNow();
                if (on)
                    opTracer->endOp();
                ref.op(now - t0, now);
                ++timedOps;
                failed += ok ? 0 : 1;
            }
            if (on) {
                sim::profile::setTiming(false);
                gTracer = nullptr;
                traced += snapshot(systems) - c0;
            } else {
                untracedDrainNs += w->drainHostNs() - drain0;
                untracedEvents += double(w->events() - ev0);
            }
        }
        ref.close(now);
        timedNs += now - begin;
    }
    const double elapsedS = double(timedNs) / 1e9;
    attempted += timedOps;

    std::vector<AnchorResult> anchors = w->anchors();
    double errSum = 0.0;
    for (const AnchorResult &a : anchors)
        errSum += a.errPct;

    Metrics m;
    if (!o.trace) {
        m.put("ops_per_s", ref.opsPerS(), "1/s");
        m.put("op_host_us_p50", ref.opUs(0.50), "us");
        m.put("op_host_us_p99", ref.opUs(0.99), "us");
        m.put("setup_s", median(setupS), "s");
        m.put("peak_rss_mb", peakRssMb(), "MB");
        m.put("paper_err_pct", errSum / double(anchors.size()), "%");
    } else {
        const Tracer &t = *opTracer;
        const double n = double(t.ops());
        const double prefix = double(w->prefixOps());
        auto prof = [&](sim::profile::Subsys s) {
            double total = 0;
            for (std::size_t k = 0; k < sim::profile::numSubsys; ++k)
                total += traced[ProfNs + k];
            return ratio(traced[ProfNs + std::size_t(s)], total);
        };
        using S = sim::profile::Subsys;
        double auPkts = traced[PktFormed] - traced[DuPkts];

        m.put("sim.events_per_op", double(fp0.events) / prefix, "events");
        m.put("sim.host_ns_per_event",
              ratio(untracedDrainNs, untracedEvents), "ns");
        m.put("sim.sim_us_per_op", double(fp0.simNs) / 1e3 / prefix,
              "sim_us");
        m.put("mem.zeropool_fresh", setupMem[ZeroFresh], "count");
        m.put("mem.zeropool_reuse", setupMem[ZeroReuse], "count");
        m.put("mem.zeropool_rezeroed_mb",
              setupMem[ZeroRezeroed] / (1024.0 * 1024.0), "MB");
        m.put("node.cpu_uses_per_op", ratio(traced[CpuUses], n), "count");
        m.put("node.cpu_busy_share",
              ratio(traced[CpuBusyNs], traced[NodeSimNs]), "ratio");
        m.put("host.cpu_share", prof(S::Cpu), "ratio");
        m.put("nic.packets_per_op", ratio(traced[PktFormed], n), "count");
        m.put("nic.au_writes_per_packet",
              auPkts > 0 ? 1.0 + traced[AuCombined] / auPkts : 0.0,
              "count");
        m.put("nic.timer_flush_share", ratio(traced[TimerFlushes], auPkts),
              "ratio");
        m.put("nic.opt_hit_ratio",
              ratio(traced[OptHits], traced[OptLookups]), "ratio");
        m.put("nic.in_bytes_per_op", ratio(traced[InBytes], n), "B");
        m.put("host.packetizer_share", prof(S::Packetizer), "ratio");
        m.put("host.nic_share", prof(S::Nic), "ratio");
        m.put("host.du_share", prof(S::Du), "ratio");
        m.put("host.dma_share", prof(S::Dma), "ratio");
        m.put("bus.eisa_busy_share",
              ratio(traced[EisaBusyNs], traced[NodeSimNs]), "ratio");
        m.put("host.bus_share", prof(S::Bus), "ratio");
        m.put("net.packets_per_op", ratio(traced[MeshPackets], n), "count");
        m.put("net.hops_mean", ratio(traced[HopsSum], traced[HopsCount]),
              "hops");
        m.put("net.host_ns_per_packet",
              ratio(traced[ProfNs + std::size_t(S::Mesh)] +
                        traced[ProfNs + std::size_t(S::Router)],
                    traced[MeshPackets]),
              "ns");
        m.put("host.mesh_share", prof(S::Mesh), "ratio");
        m.put("host.router_share", prof(S::Router), "ratio");
        for (Call c : {Call::VmmcSend, Call::VmmcAuCopy, Call::VmmcWait,
                       Call::NxCsend, Call::NxCrecv, Call::SockSend,
                       Call::SockRecv, Call::RpcCall, Call::SrpcCall}) {
            std::string base = callName(c);
            m.put(base + ".calls", ratio(double(t.calls(c)), n), "calls/op");
            m.put(base + ".host_us_p50", t.hostUs(c).quantile(0.5), "us");
            m.put(base + ".sim_us_p50", t.simUs(c).quantile(0.5), "sim_us");
        }
        const Tracer *st = setupTracer ? &*setupTracer : nullptr;
        auto setupUs = [&](Call c) {
            return st ? st->hostUs(c).quantile(0.5) : 0.0;
        };
        m.put("vmmc.export.host_us", setupUs(Call::VmmcExport), "us");
        m.put("vmmc.import.host_us", setupUs(Call::VmmcImport), "us");
        m.put("nx.scouts_per_op", ratio(traced[NxScouts], n), "count");
        m.put("nx.init.host_s", setupUs(Call::NxInit) / 1e6, "s");
        m.put("sock.connect.host_us", setupUs(Call::SockConnect), "us");
        m.put("harness.self_host_us_per_op",
              ratio(t.rootSelfHostNs(), n) / 1e3, "us");
        double plain = median(prefixHost[0]);
        m.put("trace_overhead_pct",
              plain > 0 ? (median(prefixHost[1]) - plain) / plain * 100.0
                        : 0.0,
              "%");

        std::fprintf(stderr, "\n%-22s %10s %12s %9s  %s\n", "anchor",
                     "paper", "simulated", "err %", "source");
        for (const AnchorResult &a : anchors)
            std::fprintf(stderr, "%-22s %10.3f %12.4f %9.3f  %s\n",
                         a.anchor->id, a.anchor->paper, a.simulated,
                         a.errPct, a.anchor->source);

        if (!o.artifact.empty()) {
            std::ofstream os(o.artifact);
            os.precision(17);
            os << "{\"workload\": \"" << o.workload << "\", \"seed\": "
               << o.seed << ", \"traced_ops\": " << t.ops()
               << ",\n \"anchors\": [";
            for (std::size_t k = 0; k < anchors.size(); ++k) {
                const AnchorResult &a = anchors[k];
                os << (k ? ",\n  " : "\n  ") << "{\"id\": "
                   << jsonStr(a.anchor->id)
                   << ", \"what\": " << jsonStr(a.anchor->what)
                   << ", \"source\": " << jsonStr(a.anchor->source)
                   << ", \"unit\": " << jsonStr(a.anchor->unit)
                   << ", \"paper\": " << a.anchor->paper
                   << ", \"simulated\": " << a.simulated
                   << ", \"err_pct\": " << a.errPct << "}";
            }
            os << "],\n \"self_host_us_per_op\": {\"harness\": "
               << ratio(t.rootSelfHostNs(), n) / 1e3;
            for (std::size_t k = 0; k < numCalls; ++k) {
                os << ", \"" << callName(Call(k)) << "\": "
                   << ratio(t.selfHostNs(Call(k)), n) / 1e3;
            }
            os << "},\n \"op_host_us_per_op\": "
               << ratio(t.rootHostNs(), n) / 1e3
               << ",\n \"profile_host_ns\": {";
            for (std::size_t k = 0; k < sim::profile::numSubsys; ++k) {
                os << (k ? ", \"" : "\"")
                   << sim::profile::name(sim::profile::Subsys(k))
                   << "\": " << traced[ProfNs + k];
            }
            os << "},\n \"spans\": [";
            const std::uint64_t h0 =
                t.kept().empty() ? 0 : t.kept().front().host0;
            for (std::size_t k = 0; k < t.kept().size(); ++k) {
                const Span &s = t.kept()[k];
                os << (k ? ",\n  " : "\n  ") << "[" << s.op << ", \""
                   << (s.call == Call::NumCalls ? "op" : callName(s.call))
                   << "\", " << std::int64_t(s.host0 - h0) << ", "
                   << std::int64_t(s.host1 - h0) << ", " << s.sim0 << ", "
                   << s.sim1 << "]";
            }
            os << "]}\n";
            if (!os) {
                std::fprintf(stderr, "shrimp_bench: cannot write %s\n",
                             o.artifact.c_str());
                return 2;
            }
        }
    }

    std::fprintf(stderr,
                 "%s: %.0f ops per host second, %.0f per reference second; "
                 "mean slowdown the probes measured %.3f\n",
                 o.workload.c_str(), double(timedOps) / elapsedS,
                 ref.opsPerS(), ref.slowdown());
    std::fprintf(stderr,
                 "%s: %llu ops in %.3f s timed, %llu failed; fingerprint "
                 "events=%llu sim_ns=%llu\n",
                 o.workload.c_str(), (unsigned long long)timedOps, elapsedS,
                 (unsigned long long)failed,
                 (unsigned long long)fp0.events,
                 (unsigned long long)fp0.simNs);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed,
                m.json().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: shrimp_bench --workload "
                 "latency_mix|bulk_stream|mesh_shift --seed N --seconds T "
                 "--trace 0|1 [--artifact FILE]\n");
    return 2;
}

} // namespace
} // namespace shrimp::bench

int
main(int argc, char **argv)
{
    using namespace shrimp::bench;
    Options o;
    for (int k = 1; k < argc; ++k) {
        std::string flag = argv[k];
        std::string value;
        std::size_t eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (k + 1 < argc) {
            value = argv[++k];
        } else {
            return usage();
        }
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            o.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            o.trace = value == "1";
        else if (flag == "--artifact")
            o.artifact = value;
        else
            return usage();
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end() ||
        o.seconds <= 0)
        return usage();
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "shrimp_bench: FAIL: %s\n", e.what());
        return 1;
    }
}
