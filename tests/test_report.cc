/**
 * @file
 * In-process tests for the shrimp_report core: the two artifact
 * parsers read exactly what this repo's emitters write, span chains
 * reassemble from flow events, and the merged markdown report carries
 * the ranking/latency/chain/counter sections. Input fixtures are inline
 * strings in the emitters' formats (base/trace.cc writeJson,
 * sim/profile.cc writeJson), and one round trip parses what
 * Tracer::writeJson itself writes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "base/stats.hh"
#include "base/trace.hh"
#include "report.hh"

namespace shrimp::report
{
namespace
{

const char *const kTrace =
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
    "\"args\":{\"name\":\"shrimp\"}},\n"
    "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
    "\"args\":{\"name\":\"node0.vmmc\"}},\n"
    "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,"
    "\"args\":{\"name\":\"router0\"}},\n"
    "{\"ph\":\"B\",\"name\":\"send\",\"pid\":0,\"tid\":0,\"ts\":1.000},\n"
    "{\"ph\":\"s\",\"name\":\"msg.send\",\"pid\":0,\"tid\":0,"
    "\"ts\":1.500,\"cat\":\"span\",\"id\":7,\"bp\":\"e\"},\n"
    "{\"ph\":\"t\",\"name\":\"hop\",\"pid\":0,\"tid\":1,\"ts\":2.000,"
    "\"cat\":\"span\",\"id\":7,\"bp\":\"e\"},\n"
    "{\"ph\":\"E\",\"name\":\"send\",\"pid\":0,\"tid\":0,\"ts\":3.500},\n"
    "{\"ph\":\"f\",\"name\":\"pkt.deliver\",\"pid\":0,\"tid\":1,"
    "\"ts\":4.000,\"cat\":\"span\",\"id\":7,\"bp\":\"e\"},\n"
    "{\"ph\":\"s\",\"name\":\"msg.send\",\"pid\":0,\"tid\":0,"
    "\"ts\":5.000,\"cat\":\"span\",\"id\":9,\"bp\":\"e\"},\n"
    "{\"ph\":\"C\",\"name\":\"node0.cpu.busyNs\",\"pid\":0,"
    "\"ts\":0.000,\"args\":{\"value\":0}},\n"
    "{\"ph\":\"C\",\"name\":\"queue.pending\",\"pid\":0,"
    "\"ts\":0.000,\"args\":{\"value\":2}},\n"
    "{\"ph\":\"C\",\"name\":\"node0.cpu.busyNs\",\"pid\":0,"
    "\"ts\":10.000,\"args\":{\"value\":700}},\n"
    "{\"ph\":\"C\",\"name\":\"queue.pending\",\"pid\":0,"
    "\"ts\":10.000,\"args\":{\"value\":5}}\n"
    "]}\n";

const char *const kProfile =
    "{\n"
    "  \"events_total\": 100,\n"
    "  \"host_ns_total\": 5000,\n"
    "  \"queue\": {\"max_pending\": 4, \"avg_pending\": 1.50},\n"
    "  \"subsystems\": [\n"
    "    {\"name\": \"cpu\", \"events\": 60, \"host_ns\": 4000, "
    "\"ns_per_event\": 66.7},\n"
    "    {\"name\": \"mesh\", \"events\": 40, \"host_ns\": 1000, "
    "\"ns_per_event\": 25.0}\n"
    "  ]\n"
    "}\n";

TEST(ReportParse, TraceEventsAndTrackNames)
{
    std::istringstream in(kTrace);
    TraceData td;
    std::string err;
    ASSERT_TRUE(parseTrace(in, td, err)) << err;
    EXPECT_EQ(td.trackNames.at(0), "node0.vmmc");
    EXPECT_EQ(td.trackNames.at(1), "router0");
    ASSERT_EQ(td.events.size(), 6u);
    EXPECT_EQ(td.events[0].ph, 'B');
    EXPECT_EQ(td.events[0].ts_ns, 1000u);
    EXPECT_EQ(td.events[1].ph, 's');
    EXPECT_EQ(td.events[1].id, 7u);
    EXPECT_EQ(td.events[1].ts_ns, 1500u);
}

TEST(ReportParse, RejectsNonTraceInput)
{
    std::istringstream in("{\"events_total\": 3}\n");
    TraceData td;
    std::string err;
    EXPECT_FALSE(parseTrace(in, td, err));
    EXPECT_NE(err.find("traceEvents"), std::string::npos);
}

TEST(ReportParse, ProfileTotalsAndRows)
{
    std::istringstream in(kProfile);
    ProfileData pd;
    std::string err;
    ASSERT_TRUE(parseProfile(in, pd, err)) << err;
    EXPECT_EQ(pd.eventsTotal, 100u);
    EXPECT_EQ(pd.hostNsTotal, 5000u);
    EXPECT_EQ(pd.maxPending, 4u);
    EXPECT_DOUBLE_EQ(pd.avgPending, 1.5);
    ASSERT_EQ(pd.rows.size(), 2u);
    EXPECT_EQ(pd.rows[0].name, "cpu");
    EXPECT_EQ(pd.rows[0].hostNs, 4000u);
    EXPECT_EQ(pd.rows[1].name, "mesh");
}

TEST(ReportParse, CounterEvents)
{
    std::istringstream in(kTrace);
    TraceData td;
    std::string err;
    ASSERT_TRUE(parseTrace(in, td, err)) << err;
    ASSERT_EQ(td.counters.size(), 2u);
    const CounterTrack &busy = td.counters.at("node0.cpu.busyNs");
    EXPECT_EQ(busy.samples, 2u);
    EXPECT_EQ(busy.first, 0u);
    EXPECT_EQ(busy.last, 700u);
    EXPECT_EQ(td.counters.at("queue.pending").max, 5u);
    // Counter events are not trace events: spans and chains skip them.
    EXPECT_EQ(td.events.size(), 6u);
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
    EXPECT_EQ(td.counters.count("node3.cpu.uses"), 0u);
    const CounterTrack &busy = td.counters.at("node3.cpu.busyNs");
    EXPECT_EQ(busy.samples, 3u);
    EXPECT_EQ(busy.first, 0u);
    EXPECT_EQ(busy.last, 750u);
    EXPECT_EQ(td.counters.at("queue.pending").samples, 4u);
    EXPECT_EQ(td.counters.at("queue.pending").max, 9u);

    std::ostringstream os;
    writeReport(os, &td, nullptr, 10);
    std::string md = os.str();
    EXPECT_NE(md.find("7 counter sample(s) on 2 track(s); max queue "
                      "pending 9."),
              std::string::npos);
    EXPECT_NE(md.find("| node3.cpu.busyNs | 0 | 750 | 750 |"),
              std::string::npos);
    EXPECT_EQ(md.find("| queue.pending |"), std::string::npos);
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
    ProfileData pd;
    std::string err;
    {
        std::istringstream in(kTrace);
        ASSERT_TRUE(parseTrace(in, td, err)) << err;
    }
    {
        std::istringstream in(kProfile);
        ASSERT_TRUE(parseProfile(in, pd, err)) << err;
    }
    std::ostringstream os;
    writeReport(os, &td, &pd, 10);
    std::string md = os.str();

    // Subsystem ranking, ranked cpu first.
    EXPECT_NE(md.find("## Host-cost profile"), std::string::npos);
    EXPECT_LT(md.find("| 1 | cpu |"), md.find("| 2 | mesh |"));
    // B/E latency: one matched "send" pair of 2.5 us total.
    EXPECT_NE(md.find("| node0.vmmc | send | 1 | 2.500 |"),
              std::string::npos);
    // Span chains: one of the two is complete; its stages listed.
    EXPECT_NE(md.find("2 span chain(s), 1 fully connected"),
              std::string::npos);
    EXPECT_NE(md.find("| hop | router0 |"), std::string::npos);
    // Counter tracks: first/last/delta per counter, the max pending.
    EXPECT_NE(md.find("4 counter sample(s) on 2 track(s); max queue "
                      "pending 5."),
              std::string::npos);
    EXPECT_NE(md.find("| node0.cpu.busyNs | 0 | 700 | 700 |"),
              std::string::npos);
}

TEST(ReportMarkdown, SectionsOmittedWhenInputAbsent)
{
    ProfileData pd;
    std::string err;
    std::istringstream in(kProfile);
    ASSERT_TRUE(parseProfile(in, pd, err)) << err;
    std::ostringstream os;
    writeReport(os, nullptr, &pd, 5);
    std::string md = os.str();
    EXPECT_NE(md.find("## Host-cost profile"), std::string::npos);
    EXPECT_EQ(md.find("## Span chains"), std::string::npos);
    EXPECT_EQ(md.find("## Counter tracks"), std::string::npos);
}

} // namespace
} // namespace shrimp::report
