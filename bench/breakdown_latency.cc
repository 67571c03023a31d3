/**
 * @file
 * Latency breakdown: attributes the end-to-end time of a message to the
 * pipeline stages of the SHRIMP datapath, in the style of the paper's
 * discussion of where the microseconds go (sections 3-5):
 *
 *   lib      sender library overhead (call entry, marshalling copies,
 *            PIO initiation) plus the receiver-side turnaround of the
 *            previous message in the ping-pong
 *   nic-out  outgoing FIFO, arbiter, and NIC processor-port forwarding
 *            (last pkt.formed -> last pkt.injected)
 *   mesh     routing backplane traversal (-> last pkt.ejected at the
 *            destination router)
 *   dma-in   eject queue and incoming EISA DMA into memory
 *            (-> last pkt.delivered)
 *   detect   notification/poll detection and the receive-side copy
 *            (-> receive call returns)
 *
 * The boundaries are extracted from the tick-accurate trace (base/trace)
 * recorded while the fig3 (raw VMMC), fig4 (NX) and fig5 (VRPC)
 * scenarios of scenarios.hh run, with a done-mark callback that drops
 * each message's marks on a "bench" track. Each message window is
 * [previous done-mark, done-mark] and the stage boundaries telescope
 * (each is clamped into the window and found at-or-before the next), so
 * the stage sums equal the measured end-to-end time *exactly*. The
 * binary exits 1 when any row's stage sum differs from its end-to-end
 * time by even one tick; the printed diff% column reads 0.00.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "scenarios.hh"

namespace
{

using namespace shrimp;
using namespace shrimp::bench;

// ---- trace extraction --------------------------------------------------

/** Per-(track, event-name) instant tick series, in time order. */
class EventIndex
{
  public:
    EventIndex()
    {
        const trace::Tracer &tr = trace::Tracer::instance();
        for (const auto &e : tr.events()) {
            if (e.phase == trace::Tracer::Phase::Instant)
                series_[{e.track, e.name}].push_back(e.tick);
        }
    }

    const std::vector<Tick> &
    series(const std::string &track_name, const char *event) const
    {
        static const std::vector<Tick> empty;
        auto it = series_.find({trace::track(track_name), event});
        return it == series_.end() ? empty : it->second;
    }

    /** Last tick at or before @p hi, clamped to at least @p lo. */
    static Tick
    lastAtOrBefore(const std::vector<Tick> &v, Tick hi, Tick lo)
    {
        auto it = std::upper_bound(v.begin(), v.end(), hi);
        if (it == v.begin())
            return lo;
        Tick t = *std::prev(it);
        return t < lo ? lo : t;
    }

  private:
    std::map<std::pair<trace::TrackId, std::string>, std::vector<Tick>>
        series_;
};

struct StageTotals
{
    Tick lib = 0, nicOut = 0, mesh = 0, dmaIn = 0, detect = 0;
    int msgs = 0;

    Tick sum() const { return lib + nicOut + mesh + dmaIn + detect; }
};

/**
 * Attribute the window [lo, hi] of one message from node @p src to node
 * @p dst to the five stages. The boundaries telescope backwards from
 * the end of the window, so they are monotone by construction and the
 * five stages sum to exactly hi - lo.
 */
void
accumulateLeg(const EventIndex &idx, NodeId src, NodeId dst, Tick lo,
              Tick hi, StageTotals &tot)
{
    std::string s = std::to_string(src), d = std::to_string(dst);
    Tick e = EventIndex::lastAtOrBefore(
        idx.series("node" + d + ".nic.in", "pkt.delivered"), hi, lo);
    Tick dd = EventIndex::lastAtOrBefore(
        idx.series("router" + d, "pkt.ejected"), e, lo);
    Tick c = EventIndex::lastAtOrBefore(
        idx.series("node" + s + ".nic", "pkt.injected"), dd, lo);
    Tick b = EventIndex::lastAtOrBefore(
        idx.series("node" + s + ".nic.out", "pkt.formed"), c, lo);
    tot.lib += b - lo;
    tot.nicOut += c - b;
    tot.mesh += dd - c;
    tot.dmaIn += e - dd;
    tot.detect += hi - e;
}

/** Bench-side marker track (one row in the trace viewer). */
trace::TrackId
benchTrack()
{
    return trace::track("bench");
}

void
mark(const char *name, Tick tick)
{
    trace::Tracer::instance().instant(benchTrack(), name, tick);
}

/** Collect bench done-marks named @p a2b / @p b2a inside (t0, t1]. */
std::vector<std::pair<Tick, bool>> // (tick, isA2b)
doneMarks(const char *a2b, const char *b2a, Tick t0, Tick t1)
{
    std::vector<std::pair<Tick, bool>> out;
    const trace::Tracer &tr = trace::Tracer::instance();
    for (const auto &e : tr.events()) {
        if (e.track != benchTrack() ||
            e.phase != trace::Tracer::Phase::Instant) {
            continue;
        }
        if (e.tick <= t0 || e.tick > t1)
            continue;
        if (std::strcmp(e.name, a2b) == 0)
            out.push_back({e.tick, true});
        else if (std::strcmp(e.name, b2a) == 0)
            out.push_back({e.tick, false});
    }
    return out;
}

void
beginTracedRun()
{
    trace::Tracer::instance().setEnabled(true);
    trace::Tracer::instance().clear();
}

/** One traced scenario run: its stage totals and its timed window. */
struct Breakdown
{
    StageTotals tot;
    Tick endToEnd = 0;
};

/** Run @p layer's scenario (raw, nx or vrpc) for @p curve at @p size
 *  with done-marks on, and attribute every timed message to the
 *  stages. */
Breakdown
measure(const std::string &layer, const std::string &curve,
        std::size_t size)
{
    beginTracedRun();
    const Params p{.size = size, .mark = mark};
    Run r = layer == "raw" ? rawPingPong(curve, p)
            : layer == "nx" ? nxPingPong(curve, p)
                            : vrpcNullCall(curve, p);

    EventIndex idx;
    Breakdown b;
    Tick prev = r.t0;
    if (layer == "vrpc") {
        // Each call is two legs: request (client node 0 -> server node
        // 1) up to the server-handler entry mark, and reply (1 -> 0)
        // from there to the call-done mark. Stage sums still tile.
        const auto &handles = idx.series("bench", "srv.handle");
        for (auto [tick, _] :
             doneMarks("call.done", "call.done", r.t0, r.t1)) {
            Tick m = EventIndex::lastAtOrBefore(handles, tick, prev);
            accumulateLeg(idx, 0, 1, prev, m, b.tot);
            accumulateLeg(idx, 1, 0, m, tick, b.tot);
            ++b.tot.msgs;
            prev = tick;
        }
    } else {
        // In NX, rank 0's final crecv completes after its done-mark
        // bookkeeping; t1 is the same tick as the last mark, so the
        // windows tile [t0, t1] in both ping-pongs.
        for (auto [tick, a2b] :
             doneMarks("done.a2b", "done.b2a", r.t0, r.t1)) {
            accumulateLeg(idx, a2b ? 0 : 1, a2b ? 1 : 0, prev, tick,
                          b.tot);
            ++b.tot.msgs;
            prev = tick;
        }
    }
    b.endToEnd = r.t1 - r.t0;
    return b;
}

// ---- table printing ----------------------------------------------------

struct Layer
{
    const char *name;   //!< curve prefix and measure()'s layer
    const char *header; //!< table title
    std::vector<std::string> curves;
};

/** Print @p layer's table. @return whether every row's stage sum equals
 *  its end-to-end time to the tick. */
bool
printBreakdown(const Layer &layer, const std::vector<std::size_t> &sizes)
{
    std::vector<std::string> rows;
    std::vector<std::vector<double>> values;
    bool all_ok = true;
    for (const std::string &curve : layer.curves) {
        for (std::size_t size : sizes) {
            Breakdown b = measure(layer.name, curve, size);
            const StageTotals &tot = b.tot;
            rows.push_back(curve + "/" + std::to_string(size));
            if (tot.sum() != b.endToEnd) {
                all_ok = false;
                std::fprintf(stderr,
                             "breakdown_latency: %s %s: stages sum to "
                             "%llu ticks, end-to-end is %llu\n",
                             layer.name, rows.back().c_str(),
                             (unsigned long long)tot.sum(),
                             (unsigned long long)b.endToEnd);
            }
            double per = tot.msgs ? 1.0 / (1000.0 * tot.msgs) : 0.0;
            double sum_us = double(tot.sum()) * per;
            double e2e_us = double(b.endToEnd) * per;
            double diff_pct =
                e2e_us > 0 ? (sum_us - e2e_us) / e2e_us * 100.0 : 0.0;
            values.push_back({double(tot.lib) * per,
                              double(tot.nicOut) * per,
                              double(tot.mesh) * per,
                              double(tot.dmaIn) * per,
                              double(tot.detect) * per, sum_us, e2e_us,
                              diff_pct});
        }
    }
    printTable(std::string(layer.header) +
                   " — per-message stage breakdown (us)",
               rows,
               {"lib", "nic-out", "mesh", "dma-in", "detect", "sum",
                "end2end", "diff%"},
               values);
    std::printf("%s\n\n",
                all_ok ? "stage sums MATCH end-to-end (|diff| <= 1%)"
                       : "stage sums DO NOT MATCH end-to-end");
    return all_ok;
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv);

    printBanner("Latency breakdown",
                "End-to-end message time attributed to datapath stages",
                "library overhead -> OPT/packetizer -> mesh link -> "
                "incoming DMA -> notification/poll (sections 3-5)");

    const std::vector<Layer> layers{
        {"raw", "raw VMMC (fig3 ping-pong, one-way)",
         {"AU-1copy", "AU-2copy", "DU-0copy", "DU-1copy"}},
        {"nx", "NX (fig4 ping-pong, one-way)",
         {"AU-1copy", "AU-2copy", "DU-0copy", "DU-1copy", "DU-2copy"}},
        {"vrpc", "VRPC (fig5 null call, round trip)",
         {"AU-1copy", "DU-1copy"}}};
    const std::vector<std::size_t> sizes{4, 1024};
    if (!checkDeterminismRequested()) {
        bool exact = true;
        for (const Layer &layer : layers)
            exact = printBreakdown(layer, sizes) && exact;
        if (!exact)
            return 1;
    }

    // Register every traced run with the shared driver so
    // --check-determinism (and plain google-benchmark runs) repeat
    // them exactly. Curve names carry a layer prefix.
    std::vector<Curve> curves;
    for (const Layer &layer : layers) {
        for (const std::string &name : layer.curves) {
            Curve c;
            c.name = std::string(layer.name) + "/" + name;
            for (std::size_t s : sizes)
                c.points[s] = Point{};
            curves.push_back(std::move(c));
        }
    }
    auto dispatch = [](const std::string &curve,
                       std::size_t size) -> double {
        std::size_t slash = curve.find('/');
        return double(measure(curve.substr(0, slash),
                              curve.substr(slash + 1), size)
                          .endToEnd) /
               1e9;
    };
    return runGoogleBenchmarks(argc, argv, curves, sizes, dispatch);
}
