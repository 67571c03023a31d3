/**
 * @file
 * Unit tests for the observability layer: the tick-accurate tracer
 * (span nesting, Chrome trace JSON shape, byte-identical determinism
 * across runs of a real simulated workload, one trace process per
 * event queue), the CLI/env plumbing, the
 * Distribution log2 histogram, and a full StatRegistry JSON round trip
 * through a minimal JSON parser.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "base/config.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

// ---- minimal JSON parser (tests only) ----------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = obj.find(key);
        if (it == obj.end())
            throw std::runtime_error("missing key " + key);
        return it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        ws();
        if (pos_ != s_.size())
            throw std::runtime_error("trailing JSON garbage");
        return v;
    }

  private:
    void
    ws()
    {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                    s_[pos_] == '\n' || s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            throw std::runtime_error("unexpected end of JSON");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected ") + c);
        ++pos_;
    }

    JsonValue
    value()
    {
        ws();
        char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::Str;
            v.str = string();
            return v;
        }
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return {};
        }
        return number();
    }

    void
    literal(const char *word)
    {
        for (; *word; ++word)
            expect(*word);
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (peek() == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (peek() != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                char e = s_[pos_++];
                switch (e) {
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  default:
                    out += e; // covers \" \\ \/
                }
            } else {
                out += c;
            }
        }
        ++pos_;
        return out;
    }

    JsonValue
    number()
    {
        std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start)
            throw std::runtime_error("bad JSON number");
        JsonValue v;
        v.kind = JsonValue::Kind::Num;
        v.num = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Arr;
        ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.arr.push_back(value());
            ws();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            expect(',');
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Obj;
        ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            ws();
            std::string key = string();
            ws();
            expect(':');
            v.obj[key] = value();
            ws();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            expect(',');
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

// ---- tracer ------------------------------------------------------------

struct FakeClock
{
    Tick t = 0;
    Tick now() const { return t; }
};

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::Tracer::instance().setEnabled(true);
        trace::Tracer::instance().clear();
    }

    void
    TearDown() override
    {
        trace::Tracer::instance().setEnabled(false);
        trace::Tracer::instance().clear();
    }
};

TEST_F(TraceTest, SpanNestingAtIdenticalTicks)
{
    auto &tr = trace::Tracer::instance();
    trace::TrackId t = trace::track("trace_test.nest");
    FakeClock clock{500};
    {
        trace::ScopedSpan outer(clock, t, "outer");
        {
            trace::ScopedSpan inner(clock, t, "inner");
        }
    }

    // Recording order disambiguates events sharing a tick, so the
    // nesting stays well formed: B(outer) B(inner) E(inner) E(outer).
    const auto &ev = tr.events();
    ASSERT_EQ(ev.size(), 4u);
    using Phase = trace::Tracer::Phase;
    EXPECT_EQ(ev[0].phase, Phase::Begin);
    EXPECT_STREQ(ev[0].name, "outer");
    EXPECT_EQ(ev[1].phase, Phase::Begin);
    EXPECT_STREQ(ev[1].name, "inner");
    EXPECT_EQ(ev[2].phase, Phase::End);
    EXPECT_STREQ(ev[2].name, "inner");
    EXPECT_EQ(ev[3].phase, Phase::End);
    EXPECT_STREQ(ev[3].name, "outer");
    for (const auto &e : ev) {
        EXPECT_EQ(e.tick, 500u);
        EXPECT_EQ(e.track, t);
    }
}

TEST_F(TraceTest, SpanBracketsClockAdvance)
{
    FakeClock clock{1000};
    trace::TrackId t = trace::track("trace_test.adv");
    {
        trace::ScopedSpan span(clock, t, "work");
        clock.t = 2500;
    }
    const auto &ev = trace::Tracer::instance().events();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].tick, 1000u);
    EXPECT_EQ(ev[1].tick, 2500u);
}

TEST_F(TraceTest, DisabledRecordsNothing)
{
    trace::Tracer::instance().setEnabled(false);
    trace::TrackId t = trace::track("trace_test.off");
    FakeClock clock{10};
    {
        trace::ScopedSpan span(clock, t, "work");
        trace::instant(t, "tick", 10);
    }
    EXPECT_TRUE(trace::Tracer::instance().events().empty());
}

TEST_F(TraceTest, TrackNamesDeduplicated)
{
    trace::TrackId a = trace::track("trace_test.dedup");
    trace::TrackId b = trace::track("trace_test.dedup");
    EXPECT_EQ(a, b);
    EXPECT_EQ(trace::Tracer::instance().trackName(a), "trace_test.dedup");
}

TEST_F(TraceTest, JsonShapeAndTimestampFormatting)
{
    trace::TrackId t = trace::track("trace_test.json");
    trace::track("trace_test.never_used");
    trace::instant(t, "ping", 1500); // 1.5 us
    trace::Tracer::instance().begin(t, "sp", 2000);
    trace::Tracer::instance().end(t, "sp", 1002003);

    std::ostringstream os;
    trace::Tracer::instance().writeJson(os);
    std::string json = os.str();

    // Valid JSON with the Chrome trace-event top-level shape.
    JsonValue root = parseJson(json);
    EXPECT_EQ(root.at("displayTimeUnit").str, "ns");
    const auto &events = root.at("traceEvents").arr;
    ASSERT_GE(events.size(), 4u); // process_name + thread_name + 3

    // Instants carry a scope; ticks format as microseconds with
    // exactly three decimal places (integer math, no locale).
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1002.003"), std::string::npos);

    // Only tracks that recorded events get thread_name metadata.
    EXPECT_NE(json.find("trace_test.json"), std::string::npos);
    EXPECT_EQ(json.find("trace_test.never_used"), std::string::npos);
}

/** test::runSendWorkload()'s trace as JSON. */
std::string
workloadTraceJson()
{
    trace::Tracer::instance().clear();
    test::runSendWorkload();
    std::ostringstream os;
    trace::Tracer::instance().writeJson(os);
    return os.str();
}

TEST_F(TraceTest, RealWorkloadJsonIsByteIdenticalAcrossRuns)
{
    // Each run builds a machine, so the second is the next process.
    std::string first = workloadTraceJson();
    std::string second = workloadTraceJson();
    EXPECT_FALSE(first.empty());
    EXPECT_NE(first, second);
    EXPECT_EQ(test::stripPids(first), test::stripPids(second));

    // The datapath shows up as distinct tracks (library, NIC in/out,
    // routers, bus...), not one undifferentiated row.
    JsonValue root = parseJson(first);
    std::size_t tracks = 0, spans = 0;
    for (const auto &e : root.at("traceEvents").arr) {
        const std::string &ph = e.at("ph").str;
        if (ph == "M" && e.at("name").str == "thread_name")
            ++tracks;
        if (ph == "B")
            ++spans;
    }
    EXPECT_GE(tracks, 5u);
    EXPECT_GT(spans, 0u);
}

/** Record "started" on @p t, wait 10 ns, record "resumed". */
sim::Task<>
twoInstants(sim::Simulator &sim, trace::TrackId t)
{
    trace::instant(t, "started", sim.now());
    co_await sim::Delay{sim.queue(), 10};
    trace::instant(t, "resumed", sim.now());
}

TEST_F(TraceTest, SpawnRecordsUnderItsOwnQueuesProcess)
{
    // Queues take process ids in construction order.
    sim::Simulator first, second;
    EXPECT_EQ(second.queue().process(), first.queue().process() + 1);

    // A task's first steps run in spawn(), before its queue runs; the
    // rest run in run(). Interleaved, each records under its own
    // machine's process.
    trace::TrackId t = trace::track("trace_test.process");
    first.spawn(twoInstants(first, t));
    second.spawn(twoInstants(second, t));
    first.run();
    second.run();
    const auto &ev = trace::Tracer::instance().events();
    ASSERT_EQ(ev.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        sim::Simulator &owner = i % 2 == 0 ? first : second;
        EXPECT_EQ(ev[i].process, owner.queue().process()) << i;
    }
}

TEST_F(TraceTest, HashDoesNotDependOnTheProcessId)
{
    auto &tr = trace::Tracer::instance();
    test::runSendWorkload();
    const std::uint64_t hash = tr.hash();
    const trace::ProcessId process = tr.events().front().process;
    tr.clear();
    test::runSendWorkload();
    EXPECT_NE(tr.events().front().process, process);
    EXPECT_EQ(tr.hash(), hash);
}

TEST(TraceFlags, ParseCliFlagsStripsObservabilityFlags)
{
    char p[] = "prog";
    char f1[] = "--trace=/tmp/shrimp_test_trace.json";
    char f2[] = "--stats";
    char f3[] = "--benchmark_filter=all";
    char *argv[] = {p, f1, f2, f3, nullptr};
    int argc = 4;

    trace::parseCliFlags(argc, argv);

    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "--benchmark_filter=all");
    EXPECT_EQ(argv[2], nullptr);
    EXPECT_EQ(trace::outputPath(), "/tmp/shrimp_test_trace.json");
    EXPECT_TRUE(trace::statsDumpRequested());
    EXPECT_TRUE(trace::Tracer::instance().enabled());

    // Undo so this test leaves no at-exit dump armed.
    trace::setOutputPath("");
    trace::setStatsDumpRequested(false);
    trace::Tracer::instance().setEnabled(false);
    trace::Tracer::instance().clear();
}

TEST(TraceFlags, EnvOverrideLogLevel)
{
    int saved = logging::verbosity;
    ::setenv("SHRIMP_LOG_LEVEL", "3", 1);
    applyEnvOverrides();
    EXPECT_EQ(logging::verbosity, 3);

    // Bad values are ignored, keeping the previous level.
    ::setenv("SHRIMP_LOG_LEVEL", "junk", 1);
    applyEnvOverrides();
    EXPECT_EQ(logging::verbosity, 3);
    ::setenv("SHRIMP_LOG_LEVEL", "9", 1);
    applyEnvOverrides();
    EXPECT_EQ(logging::verbosity, 3);

    ::unsetenv("SHRIMP_LOG_LEVEL");
    logging::verbosity = saved;
}

TEST(TraceFlags, EnvOverrideStatsDump)
{
    bool saved = trace::statsDumpRequested();
    ::setenv("SHRIMP_STATS", "1", 1);
    applyEnvOverrides();
    EXPECT_TRUE(trace::statsDumpRequested());
    ::unsetenv("SHRIMP_STATS");
    trace::setStatsDumpRequested(saved);
}

// ---- stats histogram ---------------------------------------------------

TEST(StatsHistogram, BucketMapping)
{
    using D = stats::Distribution;
    EXPECT_EQ(D::bucketOf(0.0), 0u);
    EXPECT_EQ(D::bucketOf(0.99), 0u);
    EXPECT_EQ(D::bucketOf(1.0), 1u);
    EXPECT_EQ(D::bucketOf(1.99), 1u);
    EXPECT_EQ(D::bucketOf(2.0), 2u);
    EXPECT_EQ(D::bucketOf(3.0), 2u);
    EXPECT_EQ(D::bucketOf(4.0), 3u);
    EXPECT_EQ(D::bucketOf(1024.0), 11u);
    // Out-of-range values clamp into the last bucket.
    EXPECT_EQ(D::bucketOf(1e300), D::numBuckets - 1);

    EXPECT_DOUBLE_EQ(D::bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(D::bucketLo(1), 1.0);
    EXPECT_DOUBLE_EQ(D::bucketLo(2), 2.0);
    EXPECT_DOUBLE_EQ(D::bucketLo(11), 1024.0);
}

TEST(StatsHistogram, SampleCountsAndDump)
{
    stats::Distribution d;
    d.sample(0.5);
    d.sample(3.0);
    d.sample(3.5);
    d.sample(1024.0);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(2), 2u);
    EXPECT_EQ(d.bucketCount(11), 1u);
    EXPECT_EQ(d.bucketCount(5), 0u);

    std::ostringstream os;
    d.dump(os, "p.lat");
    std::string text = os.str();
    EXPECT_NE(text.find("p.lat count=4"), std::string::npos);
    EXPECT_NE(text.find("p.lat.bucket[2,4) 2"), std::string::npos);
    EXPECT_NE(text.find("p.lat.bucket[1024,2048) 1"), std::string::npos);
    // Empty buckets are not printed.
    EXPECT_EQ(text.find("bucket[32,64)"), std::string::npos);
}

TEST(StatsHistogram, MergeAddsBucketsAndMoments)
{
    stats::Distribution a, b;
    a.sample(2.0);
    a.sample(8.0);
    b.sample(0.25);
    b.sample(8.5);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.min(), 0.25);
    EXPECT_DOUBLE_EQ(a.max(), 8.5);
    EXPECT_EQ(a.bucketCount(0), 1u);
    EXPECT_EQ(a.bucketCount(2), 1u);
    EXPECT_EQ(a.bucketCount(4), 2u);
}

// ---- stats registry dump round trip ------------------------------------

/** Does some line of @p dump start with @p prefix? */
bool
hasLine(const std::string &dump, const std::string &prefix)
{
    return dump.rfind(prefix, 0) == 0 ||
           dump.find("\n" + prefix) != std::string::npos;
}

TEST(StatsJson, RegistryDumpRoundTrip)
{
    auto &reg = stats::StatRegistry::global();
    {
        stats::Group g("trace_test.grp");
        g.counter("foo") += 7;
        auto &d = g.distribution("lat");
        d.sample(1.0);
        d.sample(2.0);
        d.sample(1000.0);

        std::ostringstream os;
        reg.dumpAll(os);
        const std::string dump = os.str();
        EXPECT_TRUE(hasLine(dump, "trace_test.grp.foo 7\n")) << dump;
        EXPECT_TRUE(hasLine(dump, "trace_test.grp.lat count=3 mean=")) << dump;
        EXPECT_TRUE(hasLine(dump, "trace_test.grp.lat.bucket[1,2) 1\n"));
        EXPECT_TRUE(hasLine(dump, "trace_test.grp.lat.bucket[2,4) 1\n"));
        EXPECT_TRUE(
            hasLine(dump, "trace_test.grp.lat.bucket[512,1024) 1\n"));
    }

    // The group is gone; its values folded into the retired totals.
    std::ostringstream os;
    reg.dumpAll(os);
    const std::string dump = os.str();
    EXPECT_FALSE(hasLine(dump, "trace_test.grp.")) << dump;
    EXPECT_TRUE(hasLine(dump, "retired.trace_test.grp.foo 7\n")) << dump;
    EXPECT_TRUE(hasLine(dump, "retired.trace_test.grp.lat count=3 mean="))
        << dump;
}

TEST(StatsJson, LiveGroupQueryAndDumpAll)
{
    auto &reg = stats::StatRegistry::global();
    stats::Group g("trace_test.live");
    g.counter("hits") += 3;
    EXPECT_EQ(reg.find("trace_test.live"), &g);
    EXPECT_EQ(g.get("hits"), 3u);
    EXPECT_EQ(g.get("absent"), 0u);

    std::ostringstream os;
    reg.dumpAll(os);
    EXPECT_NE(os.str().find("trace_test.live.hits 3"), std::string::npos);
}

} // namespace
} // namespace shrimp
