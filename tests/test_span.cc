/**
 * @file
 * Tests for the causal message-span layer (base/span.hh) and its two
 * observability siblings: span ids must ride a message across the
 * packetizer / mesh / incoming-DMA stages as one connected flow chain,
 * combined AU writes must join one parent span, sampling must be
 * deterministic, and with sampling off the trace stream must stay
 * byte-identical (spans are purely additive). Smoke tests cover the
 * host-cost profiler (sim/profile.hh) and the counter tracks a trace
 * file carries (Tracer::sampleCounters) on the same workload.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/span.hh"
#include "base/trace.hh"
#include "net/mesh.hh"
#include "nic/shrimp_nic.hh"
#include "sim/profile.hh"
#include "test_util.hh"
#include "vmmc/vmmc.hh"

namespace shrimp
{
namespace
{

using trace::Tracer;
using Phase = Tracer::Phase;

using test::runSendWorkload;

std::string
traceJson()
{
    std::ostringstream os;
    Tracer::instance().writeJson(os);
    return os.str();
}

class SpanTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::instance().setEnabled(true);
        Tracer::instance().clear();
        span::reset();
    }

    void
    TearDown() override
    {
        span::reset();
        sim::profile::reset();
        trace::setOutputPath("");
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
    }
};

TEST_F(SpanTest, OffByDefaultEmitsNoFlowEvents)
{
    EXPECT_EQ(span::sampleEvery(), 0u);
    runSendWorkload();
    for (const auto &e : Tracer::instance().events())
        EXPECT_LT(e.phase, Phase::FlowStart);
    EXPECT_EQ(traceJson().find("\"cat\":\"span\""), std::string::npos);
}

TEST_F(SpanTest, OriginRespectsSamplingPeriodDeterministically)
{
    span::setSampleEvery(3);
    trace::TrackId t = trace::track("span_test.origin");
    std::vector<span::SpanId> ids;
    for (int i = 0; i < 7; ++i)
        ids.push_back(span::origin(t, "msg", Tick(i)));
    // First origin after reset is sampled, then every third one.
    EXPECT_NE(ids[0], 0u);
    EXPECT_EQ(ids[1], 0u);
    EXPECT_EQ(ids[2], 0u);
    EXPECT_NE(ids[3], 0u);
    EXPECT_NE(ids[6], 0u);
    EXPECT_NE(ids[0], ids[3]);
}

TEST_F(SpanTest, StagedHandoffClaimsOnce)
{
    span::setSampleEvery(1);
    trace::TrackId t = trace::track("span_test.stage");
    span::SpanId id = span::origin(t, "msg", 0);
    ASSERT_NE(id, 0u);
    span::stage(id);
    EXPECT_EQ(span::takeStaged(), id);
    EXPECT_EQ(span::takeStaged(), 0u); // claimed: slot is clear
    span::stage(0);                    // staging "not sampled" is a no-op
    EXPECT_EQ(span::takeStaged(), 0u);
}

TEST_F(SpanTest, SampledSendFormsConnectedChain)
{
    span::setSampleEvery(1);
    runSendWorkload();

    // Group flow events by id; each chain must read, in recording
    // order: origin first, then waypoints with nondecreasing ticks,
    // terminus last.
    struct Chain
    {
        std::vector<const Tracer::Event *> ev;
    };
    std::map<std::uint64_t, Chain> chains;
    for (const auto &e : Tracer::instance().events()) {
        if (e.phase >= Phase::FlowStart)
            chains[e.id].ev.push_back(&e);
    }
    ASSERT_FALSE(chains.empty());

    bool sawFullDatapath = false;
    for (const auto &[id, c] : chains) {
        EXPECT_NE(id, 0u);
        EXPECT_EQ(c.ev.front()->phase, Phase::FlowStart);
        EXPECT_EQ(c.ev.back()->phase, Phase::FlowEnd);
        Tick prev = 0;
        bool inject = false, hop = false, deliver = false;
        for (const auto *e : c.ev) {
            EXPECT_GE(e->tick, prev);
            prev = e->tick;
            inject |= std::string(e->name) == "pkt.inject";
            hop |= std::string(e->name) == "hop";
            deliver |= std::string(e->name) == "pkt.deliver" ||
                       std::string(e->name) == "notify";
        }
        if (std::string(c.ev.front()->name) == "msg.send" && inject &&
            hop && deliver) {
            sawFullDatapath = true;
        }
    }
    // At least one chain runs the whole send -> inject -> hop* ->
    // deliver datapath.
    EXPECT_TRUE(sawFullDatapath);
}

TEST_F(SpanTest, SamplingIsDeterministicAcrossRuns)
{
    span::setSampleEvery(2);
    runSendWorkload();
    std::string first = traceJson();

    Tracer::instance().clear();
    span::reset();
    span::setSampleEvery(2);
    runSendWorkload();
    std::string second = traceJson();

    EXPECT_FALSE(first.empty());
    EXPECT_EQ(test::stripPids(first), test::stripPids(second));
    EXPECT_NE(first.find("\"cat\":\"span\""), std::string::npos);
}

TEST_F(SpanTest, SpansArePurelyAdditiveToTheTrace)
{
    // Spans off: baseline trace.
    runSendWorkload();
    std::string off = traceJson();
    std::uint64_t offHash = Tracer::instance().hash();

    // Spans on: same workload, on a machine of its own, so a trace
    // process with the next id. Deleting the span lines (each event is
    // one line; flow events are tagged "cat":"span") must recover the
    // spans-off event stream byte for byte, modulo the process id —
    // the golden-hash guarantee. thread_name metadata is dropped from
    // both sides: a span can be the only event on a track (e.g. a
    // pass-through router), and then naming that track is part of its
    // additive footprint.
    Tracer::instance().clear();
    span::reset();
    span::setSampleEvery(4);
    runSendWorkload();
    std::string on = traceJson();
    ASSERT_NE(on, off);

    auto strip = [](const std::string &json) {
        std::string kept;
        std::istringstream is(json);
        std::string line;
        while (std::getline(is, line)) {
            if (line.find("\"cat\":\"span\"") == std::string::npos &&
                line.find("\"thread_name\"") == std::string::npos) {
                kept += line + "\n";
            }
        }
        return kept;
    };
    EXPECT_EQ(test::stripPids(strip(on)), test::stripPids(strip(off)));

    // And turning sampling off again reproduces the baseline hash.
    Tracer::instance().clear();
    span::reset();
    runSendWorkload();
    EXPECT_EQ(Tracer::instance().hash(), offHash);
}

TEST_F(SpanTest, SampledFlowChainsMatchAcrossMeshEngines)
{
    // Every sampled chain of the two-node workload, pinned to the digest
    // a router running one Bus::transfer per hop produced: the link
    // ledger steps the same spans through the same routers at the same
    // ticks (DESIGN.md §14).
    span::setSampleEvery(1);
    runSendWorkload();
    EXPECT_EQ(test::flowDigest(), 0x9cc80d7795c6a078ull);
}

TEST_F(SpanTest, CombinedWritesJoinOneParentSpan)
{
    span::setSampleEvery(1);
    MachineConfig cfg;
    sim::Simulator sim;
    sim::Channel<net::Packet> fifo(sim.queue());
    nic::Packetizer pktzr(sim, cfg, 0, fifo);

    nic::OptEntry e;
    e.valid = true;
    e.destNode = 1;
    e.destBase = 0x2000;
    e.len = cfg.pageBytes;

    // A library stages the span of the message it is about to write;
    // the packetizer claims it when the first write opens the packet.
    trace::TrackId t = trace::track("span_test.lib");
    span::SpanId parent = span::origin(t, "msg.send", sim.now());
    ASSERT_NE(parent, 0u);
    span::stage(parent);

    std::uint32_t w = 0x11111111;
    for (int i = 0; i < 4; ++i)
        pktzr.auWrite(e, 0x2000 + 4 * i, &w, 4);
    pktzr.flushPending();

    net::Packet pkt;
    sim.spawn([](sim::Channel<net::Packet> &f,
                 net::Packet &out) -> sim::Task<> {
        out = co_await f.recv();
    }(fifo, pkt));
    sim.runAll();

    // All four writes combined into one packet carrying the parent id.
    EXPECT_EQ(pktzr.writesCombined(), 3u);
    EXPECT_EQ(pkt.spanId, parent);

    // Exactly one flow chain: the combined writes did not fork spans.
    std::map<std::uint64_t, int> perId;
    for (const auto &ev : Tracer::instance().events()) {
        if (ev.phase >= Phase::FlowStart)
            ++perId[ev.id];
    }
    ASSERT_EQ(perId.size(), 1u);
    EXPECT_EQ(perId.begin()->first, parent);
}

/** Ask for a trace file, which turns counter sampling on; TearDown
 *  clears the path again, so no file is written. */
void
requestTraceFile()
{
    trace::setOutputPath(::testing::TempDir() + "span_test.trace.json");
}

TEST_F(SpanTest, ProfilerAttributesDispatchBySubsystem)
{
    requestTraceFile();
    sim::profile::setTiming(true);
    runSendWorkload();
    sim::profile::setTiming(false);

    // The workload exercises CPU cost modelling, the EISA bus and the
    // NIC pump; each must have claimed events and host time.
    for (auto s : {sim::profile::Subsys::Cpu, sim::profile::Subsys::Bus,
                   sim::profile::Subsys::Nic}) {
        EXPECT_GT(sim::profile::row(s).events, 0u)
            << sim::profile::name(s);
    }
    // The last value of each host.<tag>.* counter track is the tag's
    // total; a tag that never ran has no track values.
    const Tracer &tracer = Tracer::instance();
    std::map<std::string, std::uint64_t> last;
    for (const auto &s : tracer.samples())
        last[tracer.trackName(s.track)] = s.value;
    for (std::size_t i = 0; i < sim::profile::numSubsys; ++i) {
        const auto s = sim::profile::Subsys(i);
        const sim::profile::Row &r = sim::profile::row(s);
        const std::string tag =
            std::string("host.").append(sim::profile::name(s));
        EXPECT_EQ(last[tag + ".events"], r.events) << tag;
        EXPECT_EQ(last[tag + ".ns"], r.hostNs) << tag;
    }
}

TEST_F(SpanTest, CounterSamplesDuringRun)
{
    runSendWorkload();
    const std::uint64_t unsampledHash = Tracer::instance().hash();
    EXPECT_TRUE(Tracer::instance().samples().empty());

    Tracer::instance().clear();
    requestTraceFile();
    runSendWorkload();
    const auto &samples = Tracer::instance().samples();
    ASSERT_FALSE(samples.empty());
    Tick prev = 0;
    for (const auto &s : samples) {
        EXPECT_GE(s.tick, prev);
        prev = s.tick;
    }
    // Counters are written as counter events and never enter the hash.
    EXPECT_EQ(Tracer::instance().hash(), unsampledHash);
    std::string json = traceJson();
    for (const char *counter : {"node0.cpu.busyNs", "node0.eisa.occupancyNs",
                                "queue.pending"}) {
        EXPECT_NE(json.find(std::string("{\"ph\":\"C\",\"name\":\"") +
                            counter + "\""),
                  std::string::npos)
            << counter;
    }
}

TEST_F(SpanTest, EveryMachineIsSampledFromItsOwnTickZero)
{
    // A long run, then a shorter one: each event queue keeps its own
    // next-sample tick, so the second machine is sampled from its first
    // period even though its clock never reaches the first one's.
    requestTraceFile();
    const auto &samples = Tracer::instance().samples();
    runSendWorkload(4096);
    const std::size_t firstRun = samples.size();
    ASSERT_GT(firstRun, 0u);
    const Tick firstEnd = samples.back().tick;
    runSendWorkload(256);
    ASSERT_GT(samples.size(), firstRun);
    EXPECT_LT(samples.front().tick, trace::samplePeriod);
    EXPECT_LT(samples[firstRun].tick, trace::samplePeriod);
    EXPECT_LT(samples.back().tick, firstEnd);
}

} // namespace
} // namespace shrimp
