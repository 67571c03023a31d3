/**
 * @file
 * In-process tests for the shrimp_report core: the parser reads exactly
 * what Tracer::writeJson writes, one process per machine, span chains
 * reassemble from flow events, the host-cost table comes from the
 * host.<tag>.* counter tracks, and the markdown report carries the
 * ranking/latency/chain/counter sections. The input fixture is an
 * inline string in the emitter's format (base/trace.cc writeJson), and
 * two round trips parse what Tracer::writeJson itself writes.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "base/stats.hh"
#include "base/trace.hh"
#include "report.hh"
#include "sim/profile.hh"
#include "test_util.hh"

namespace shrimp::report
{
namespace
{

// Two machines: each opens and closes a "send" span on track 0, and
// their spans overlap in time; each samples node0.cpu.busyNs. The
// first was profiled into host.<tag>.* tracks, and the second's values
// carry on from the first's (the totals are process-wide).
const char *const kTrace =
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
    "\"args\":{\"name\":\"machine 1\"}},\n"
    "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
    "\"args\":{\"name\":\"node0.vmmc\"}},\n"
    "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
    "\"args\":{\"name\":\"router0\"}},\n"
    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
    "\"args\":{\"name\":\"machine 2\"}},\n"
    "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,\"tid\":0,"
    "\"args\":{\"name\":\"node0.vmmc\"}},\n"
    "{\"ph\":\"B\",\"name\":\"send\",\"pid\":1,\"tid\":0,\"ts\":1.000},\n"
    "{\"ph\":\"s\",\"name\":\"msg.send\",\"pid\":1,\"tid\":0,"
    "\"ts\":1.500,\"cat\":\"span\",\"id\":7,\"bp\":\"e\"},\n"
    "{\"ph\":\"t\",\"name\":\"hop\",\"pid\":1,\"tid\":1,\"ts\":2.000,"
    "\"cat\":\"span\",\"id\":7,\"bp\":\"e\"},\n"
    "{\"ph\":\"B\",\"name\":\"send\",\"pid\":2,\"tid\":0,\"ts\":2.000},\n"
    "{\"ph\":\"E\",\"name\":\"send\",\"pid\":1,\"tid\":0,\"ts\":3.500},\n"
    "{\"ph\":\"f\",\"name\":\"pkt.deliver\",\"pid\":1,\"tid\":1,"
    "\"ts\":4.000,\"cat\":\"span\",\"id\":7,\"bp\":\"e\"},\n"
    "{\"ph\":\"E\",\"name\":\"send\",\"pid\":2,\"tid\":0,\"ts\":4.500},\n"
    "{\"ph\":\"s\",\"name\":\"msg.send\",\"pid\":1,\"tid\":0,"
    "\"ts\":5.000,\"cat\":\"span\",\"id\":9,\"bp\":\"e\"},\n"
    "{\"ph\":\"C\",\"name\":\"node0.cpu.busyNs\",\"pid\":1,"
    "\"ts\":0.000,\"args\":{\"value\":0}},\n"
    "{\"ph\":\"C\",\"name\":\"queue.pending\",\"pid\":1,"
    "\"ts\":0.000,\"args\":{\"value\":2}},\n"
    "{\"ph\":\"C\",\"name\":\"host.cpu.ns\",\"pid\":1,"
    "\"ts\":0.000,\"args\":{\"value\":500}},\n"
    "{\"ph\":\"C\",\"name\":\"host.cpu.events\",\"pid\":1,"
    "\"ts\":0.000,\"args\":{\"value\":8}},\n"
    "{\"ph\":\"C\",\"name\":\"node0.cpu.busyNs\",\"pid\":1,"
    "\"ts\":10.000,\"args\":{\"value\":700}},\n"
    "{\"ph\":\"C\",\"name\":\"queue.pending\",\"pid\":1,"
    "\"ts\":10.000,\"args\":{\"value\":5}},\n"
    "{\"ph\":\"C\",\"name\":\"host.cpu.ns\",\"pid\":1,"
    "\"ts\":10.000,\"args\":{\"value\":3000}},\n"
    "{\"ph\":\"C\",\"name\":\"host.cpu.events\",\"pid\":1,"
    "\"ts\":10.000,\"args\":{\"value\":45}},\n"
    "{\"ph\":\"C\",\"name\":\"host.mesh.ns\",\"pid\":1,"
    "\"ts\":10.000,\"args\":{\"value\":1000}},\n"
    "{\"ph\":\"C\",\"name\":\"host.mesh.events\",\"pid\":1,"
    "\"ts\":10.000,\"args\":{\"value\":40}},\n"
    "{\"ph\":\"C\",\"name\":\"node0.cpu.busyNs\",\"pid\":2,"
    "\"ts\":0.000,\"args\":{\"value\":100}},\n"
    "{\"ph\":\"C\",\"name\":\"queue.pending\",\"pid\":2,"
    "\"ts\":0.000,\"args\":{\"value\":1}},\n"
    "{\"ph\":\"C\",\"name\":\"host.cpu.ns\",\"pid\":2,"
    "\"ts\":0.000,\"args\":{\"value\":4000}},\n"
    "{\"ph\":\"C\",\"name\":\"host.cpu.events\",\"pid\":2,"
    "\"ts\":0.000,\"args\":{\"value\":60}},\n"
    "{\"ph\":\"C\",\"name\":\"node0.cpu.busyNs\",\"pid\":2,"
    "\"ts\":10.000,\"args\":{\"value\":400}}\n"
    "]}\n";

/** kTrace without its host.* counter lines: a run without --profile. */
std::string
unprofiledTrace()
{
    std::string kept;
    std::istringstream is(kTrace);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"host.") == std::string::npos)
            kept += line + "\n";
    }
    return kept;
}

TEST(ReportParse, TraceEventsAndTrackNames)
{
    std::istringstream in(kTrace);
    TraceData td;
    std::string err;
    ASSERT_TRUE(parseTrace(in, td, err)) << err;
    EXPECT_EQ(td.trackNames.at(0), "node0.vmmc");
    EXPECT_EQ(td.trackNames.at(1), "router0");
    EXPECT_EQ(td.process(1), "machine 1");
    EXPECT_EQ(td.process(2), "machine 2");
    ASSERT_EQ(td.events.size(), 8u);
    EXPECT_EQ(td.events[0].ph, 'B');
    EXPECT_EQ(td.events[0].ts_ns, 1000u);
    EXPECT_EQ(td.events[0].pid, 1);
    EXPECT_EQ(td.events[1].ph, 's');
    EXPECT_EQ(td.events[1].id, 7u);
    EXPECT_EQ(td.events[1].ts_ns, 1500u);
    EXPECT_EQ(td.events[3].pid, 2);
}

TEST(ReportParse, RejectsNonTraceInput)
{
    std::istringstream in("{\"events_total\": 3}\n");
    TraceData td;
    std::string err;
    EXPECT_FALSE(parseTrace(in, td, err));
    EXPECT_NE(err.find("traceEvents"), std::string::npos);
}

TEST(ReportParse, HostCostFromCounterTracks)
{
    // Each tag's total is its largest value in any process.
    std::istringstream in(kTrace);
    TraceData td;
    std::string err;
    ASSERT_TRUE(parseTrace(in, td, err)) << err;
    std::vector<HostCost> host = hostCost(td);
    ASSERT_EQ(host.size(), 2u);
    EXPECT_EQ(host[0].tag, "cpu");
    EXPECT_EQ(host[0].hostNs, 4000u);
    EXPECT_EQ(host[0].events, 60u);
    EXPECT_EQ(host[1].tag, "mesh");
    EXPECT_EQ(host[1].hostNs, 1000u);
    EXPECT_EQ(host[1].events, 40u);

    std::istringstream plain(unprofiledTrace());
    TraceData unprofiled;
    ASSERT_TRUE(parseTrace(plain, unprofiled, err)) << err;
    EXPECT_TRUE(hostCost(unprofiled).empty());
}

TEST(ReportParse, CounterEvents)
{
    std::istringstream in(kTrace);
    TraceData td;
    std::string err;
    ASSERT_TRUE(parseTrace(in, td, err)) << err;
    // One track per (process, counter name).
    ASSERT_EQ(td.counters.size(), 10u);
    const CounterTrack &busy1 = td.counters.at({1, "node0.cpu.busyNs"});
    EXPECT_EQ(busy1.samples, 2u);
    EXPECT_EQ(busy1.first, 0u);
    EXPECT_EQ(busy1.last, 700u);
    const CounterTrack &busy2 = td.counters.at({2, "node0.cpu.busyNs"});
    EXPECT_EQ(busy2.first, 100u);
    EXPECT_EQ(busy2.last, 400u);
    EXPECT_EQ(td.counters.at({1, "queue.pending"}).max, 5u);
    // Counter events are not trace events: spans and chains skip them.
    EXPECT_EQ(td.events.size(), 8u);
}

TEST(ReportParse, RoundTripsTheTracersCounterEvents)
{
    // Emit through Tracer::writeJson, read back with parseTrace: the
    // emitter and the parser must agree on the counter event format.
    trace::Tracer &tracer = trace::Tracer::instance();
    tracer.clear();
    {
        stats::Group g("node3.cpu");
        stats::Counter &busy = g.counter("busyNs");
        g.counter("uses") += 5; // the sampling filter skips it
        tracer.sampleCounters(0, 3);
        busy += 700;
        tracer.sampleCounters(10000, 9);
        busy += 50;
        tracer.sampleCounters(20500, 1);
        tracer.sampleCounters(30500, 0); // busy unchanged: not written
    }
    std::stringstream json;
    tracer.writeJson(json);
    tracer.clear();

    TraceData td;
    std::string err;
    ASSERT_TRUE(parseTrace(json, td, err)) << err;
    EXPECT_TRUE(td.events.empty());
    const int pid = int(trace::process());
    EXPECT_EQ(td.counters.count({pid, "node3.cpu.uses"}), 0u);
    const CounterTrack &busy = td.counters.at({pid, "node3.cpu.busyNs"});
    EXPECT_EQ(busy.samples, 3u);
    EXPECT_EQ(busy.first, 0u);
    EXPECT_EQ(busy.last, 750u);
    EXPECT_EQ(td.counters.at({pid, "queue.pending"}).samples, 4u);
    EXPECT_EQ(td.counters.at({pid, "queue.pending"}).max, 9u);

    std::ostringstream os;
    writeReport(os, td, 10);
    std::string md = os.str();
    EXPECT_NE(md.find("7 counter sample(s) on 2 track(s); max queue "
                      "pending 9."),
              std::string::npos);
    EXPECT_NE(md.find(" | node3.cpu.busyNs | 0 | 750 | 750 |"),
              std::string::npos);
    EXPECT_EQ(md.find("| queue.pending |"), std::string::npos);
}

TEST(ReportParse, RoundTripsTwoProfiledMachines)
{
    // Two machines, one after the other, profiled into a trace: the
    // file names two processes, keeps each one's counter tracks apart,
    // and its host tracks end on the profiler's totals.
    trace::Tracer &tracer = trace::Tracer::instance();
    tracer.clear();
    sim::profile::reset();
    trace::setOutputPath(::testing::TempDir() + "report_test.trace.json");
    sim::profile::setTiming(true);
    test::runSendWorkload(4096);
    test::runSendWorkload(256);
    sim::profile::setTiming(false);
    std::stringstream json;
    tracer.writeJson(json);
    // Each (process, counter)'s first and last recorded value.
    std::map<CounterKey, std::pair<std::uint64_t, std::uint64_t>> recorded;
    for (const trace::Tracer::Sample &c : tracer.samples()) {
        auto [it, fresh] = recorded.try_emplace(
            CounterKey{int(c.process), tracer.trackName(c.track)},
            c.value, c.value);
        it->second.second = c.value;
    }
    trace::setOutputPath(""); // no file at exit
    tracer.setEnabled(false);
    tracer.clear();

    TraceData td;
    std::string err;
    ASSERT_TRUE(parseTrace(json, td, err)) << err;
    EXPECT_EQ(td.processNames.size(), 2u);
    EXPECT_EQ(td.counters.size(), recorded.size());
    for (const auto &[key, c] : td.counters) {
        ASSERT_TRUE(recorded.count(key)) << key.second;
        EXPECT_EQ(c.first, recorded.at(key).first) << key.second;
        EXPECT_EQ(c.last, recorded.at(key).second) << key.second;
    }
    std::map<std::string, HostCost> host;
    for (const HostCost &h : hostCost(td))
        host[h.tag] = h;
    for (std::size_t i = 0; i < sim::profile::numSubsys; ++i) {
        const auto s = sim::profile::Subsys(i);
        const sim::profile::Row &r = sim::profile::row(s);
        EXPECT_EQ(host[sim::profile::name(s)].events, r.events)
            << sim::profile::name(s);
        EXPECT_EQ(host[sim::profile::name(s)].hostNs, r.hostNs)
            << sim::profile::name(s);
    }
    EXPECT_GT(host["cpu"].events, 0u);
    sim::profile::reset();
}

TEST(ReportChains, CompleteMeansOriginWaypointTerminus)
{
    std::istringstream in(kTrace);
    TraceData td;
    std::string err;
    ASSERT_TRUE(parseTrace(in, td, err)) << err;
    auto chains = spanChains(td);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_EQ(chains[0].id, 7u);
    EXPECT_TRUE(chains[0].complete);
    EXPECT_EQ(chains[0].stages.size(), 3u);
    EXPECT_EQ(chains[1].id, 9u);
    EXPECT_FALSE(chains[1].complete); // origin only, never delivered
}

TEST(ReportMarkdown, MergesAllSections)
{
    TraceData td;
    std::string err;
    std::istringstream in(kTrace);
    ASSERT_TRUE(parseTrace(in, td, err)) << err;
    std::ostringstream os;
    writeReport(os, td, 10);
    std::string md = os.str();

    // Subsystem ranking, ranked cpu first.
    EXPECT_NE(md.find("## Host-cost profile"), std::string::npos);
    EXPECT_NE(md.find("Events dispatched: 100; host time in dispatch"),
              std::string::npos);
    EXPECT_LT(md.find("| 1 | cpu | 60 |"), md.find("| 2 | mesh | 40 |"));
    // B/E latency: one "send" pair in each machine, 2.5 us each; the
    // overlapping pairs match within their own process.
    EXPECT_NE(md.find("| node0.vmmc | send | 2 | 5.000 | 2.500 | 2.500 | "
                      "2.500 |"),
              std::string::npos);
    // Span chains: one of the two is complete; its stages listed.
    EXPECT_NE(md.find("2 span chain(s), 1 fully connected"),
              std::string::npos);
    EXPECT_NE(md.find("| hop | router0 |"), std::string::npos);
    // Counter tracks: first/last/delta per process and counter, the max
    // pending; the host tracks have their own section.
    EXPECT_NE(md.find("15 counter sample(s) on 10 track(s); max queue "
                      "pending 5."),
              std::string::npos);
    EXPECT_NE(md.find("| machine 1 | node0.cpu.busyNs | 0 | 700 | 700 |"),
              std::string::npos);
    EXPECT_NE(md.find("| machine 2 | node0.cpu.busyNs | 100 | 400 | 300 |"),
              std::string::npos);
    EXPECT_EQ(md.find("| host.cpu.ns |"), std::string::npos);
}

TEST(ReportMarkdown, SectionsOmittedWhenInputAbsent)
{
    // No host tracks, no host-cost section.
    TraceData td;
    std::string err;
    std::istringstream in(unprofiledTrace());
    ASSERT_TRUE(parseTrace(in, td, err)) << err;
    std::ostringstream os;
    writeReport(os, td, 5);
    std::string md = os.str();
    EXPECT_EQ(md.find("## Host-cost profile"), std::string::npos);
    EXPECT_NE(md.find("## Span chains"), std::string::npos);
    EXPECT_NE(md.find("## Counter tracks"), std::string::npos);
}

} // namespace
} // namespace shrimp::report
