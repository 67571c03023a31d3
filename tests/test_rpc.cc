/**
 * @file
 * Tests for the SunRPC-compatible VRPC library: RFC 1057 header wire
 * format, calls with assorted argument/result types, error statuses,
 * multiple clients, large payloads over the cyclic queue, and the
 * latency targets from the paper.
 */

#include <gtest/gtest.h>

#include "rpc/server.hh"
#include "test_util.hh"

namespace shrimp::rpc
{
namespace
{

constexpr std::uint32_t kProg = 0x20000001;
constexpr std::uint32_t kVers = 1;

/** Fixture with a server (node 1) exposing a few procedures. */
class RpcTest : public ::testing::Test
{
  public:
    RpcTest()
        : sys_(), serverEp_(sys_.createEndpoint(1)),
          clientEp_(sys_.createEndpoint(0)), server_(serverEp_, 5000)
    {
        // proc 0: null
        server_.registerProc(kProg, kVers, 0,
                             [](XdrDecoder &) -> sim::Task<
                                 VrpcServer::ServiceResult> {
                                 co_return VrpcServer::ServiceResult{};
                             });
        // proc 1: add two ints
        server_.registerProc(
            kProg, kVers, 1,
            [](XdrDecoder &dec)
                -> sim::Task<VrpcServer::ServiceResult> {
                std::int32_t a = co_await dec.getI32();
                std::int32_t b = co_await dec.getI32();
                VrpcServer::ServiceResult r;
                r.results = [a, b](XdrEncoder &enc) -> sim::Task<> {
                    co_await enc.putI32(a + b);
                };
                co_return r;
            });
        // proc 2: echo opaque bytes
        server_.registerProc(
            kProg, kVers, 2,
            [](XdrDecoder &dec)
                -> sim::Task<VrpcServer::ServiceResult> {
                auto data = co_await dec.getBytes(1 << 20);
                VrpcServer::ServiceResult r;
                r.results = [data](XdrEncoder &enc) -> sim::Task<> {
                    co_await enc.putBytes(data.data(), data.size());
                };
                co_return r;
            });
        // proc 3: string stats (len + reversed string)
        server_.registerProc(
            kProg, kVers, 3,
            [](XdrDecoder &dec)
                -> sim::Task<VrpcServer::ServiceResult> {
                std::string s = co_await dec.getString(4096);
                VrpcServer::ServiceResult r;
                r.results = [s](XdrEncoder &enc) -> sim::Task<> {
                    co_await enc.putU32(std::uint32_t(s.size()));
                    co_await enc.putString(
                        std::string(s.rbegin(), s.rend()));
                };
                co_return r;
            });
        // proc 4: always GARBAGE_ARGS (simulates a decode failure)
        server_.registerProc(
            kProg, kVers, 4,
            [](XdrDecoder &)
                -> sim::Task<VrpcServer::ServiceResult> {
                VrpcServer::ServiceResult r;
                r.stat = AcceptStat::GarbageArgs;
                co_return r;
            });
        server_.start();
    }

    void
    runClient(std::function<sim::Task<>(VrpcClient &)> body)
    {
        sys_.sim().spawn([](vmmc::Endpoint &ep,
                            std::function<sim::Task<>(VrpcClient &)> body)
                             -> sim::Task<> {
            VrpcClient client(ep);
            bool up = co_await client.connect(1, 5000, kProg, kVers);
            EXPECT_TRUE(up);
            co_await body(client);
            co_await client.close();
        }(clientEp_, std::move(body)));
        sys_.sim().runAll();
    }

    vmmc::System sys_;
    vmmc::Endpoint &serverEp_;
    vmmc::Endpoint &clientEp_;
    VrpcServer server_;
};

TEST(RpcWire, CallHeaderGoldenBytes)
{
    sim::Simulator s;
    BufferSink sink;
    XdrEncoder enc(sink);
    CallHeader h;
    h.xid = 0x11223344;
    h.prog = 0x20000001;
    h.vers = 2;
    h.proc = 7;
    test::runTask(s, h.encode(enc));
    EXPECT_EQ(sink.bytes().size(), CallHeader::wireBytes);
    const auto &b = sink.bytes();
    // xid
    EXPECT_EQ(b[0], 0x11);
    EXPECT_EQ(b[3], 0x44);
    // mtype CALL = 0
    EXPECT_EQ(b[7], 0);
    // rpcvers = 2
    EXPECT_EQ(b[11], 2);
    // prog
    EXPECT_EQ(b[12], 0x20);
    EXPECT_EQ(b[15], 0x01);
    // proc
    EXPECT_EQ(b[23], 7);
    // cred + verf AUTH_NONE: 4 zero words
    for (int i = 24; i < 40; ++i)
        EXPECT_EQ(b[i], 0);
}

TEST(RpcWire, HeadersRoundTrip)
{
    sim::Simulator s;
    BufferSink sink;
    XdrEncoder enc(sink);
    CallHeader h;
    h.xid = 99;
    h.prog = 200;
    h.vers = 3;
    h.proc = 4;
    ReplyHeader rh;
    rh.xid = 99;
    rh.stat = AcceptStat::ProcUnavail;
    test::runTask(s, [](XdrEncoder &enc, CallHeader h,
                        ReplyHeader rh) -> sim::Task<> {
        co_await h.encode(enc);
        co_await rh.encode(enc);
    }(enc, h, rh));

    sim::Simulator s2;
    BufferSource src(sink.bytes());
    XdrDecoder dec(src);
    test::runTask(s2, [](XdrDecoder &dec) -> sim::Task<> {
        CallHeader h = co_await CallHeader::decode(dec);
        EXPECT_EQ(h.xid, 99u);
        EXPECT_EQ(h.prog, 200u);
        EXPECT_EQ(h.vers, 3u);
        EXPECT_EQ(h.proc, 4u);
        ReplyHeader rh = co_await ReplyHeader::decode(dec);
        EXPECT_EQ(rh.xid, 99u);
        EXPECT_EQ(rh.stat, AcceptStat::ProcUnavail);
    }(dec));
}

TEST_F(RpcTest, NullCallSucceeds)
{
    runClient([](VrpcClient &c) -> sim::Task<> {
        AcceptStat st = co_await c.call(0, nullptr, nullptr);
        EXPECT_EQ(st, AcceptStat::Success);
    });
    EXPECT_EQ(server_.callsServed(), 1u);
}

TEST_F(RpcTest, WriteOutsideTheStreamDoesNotWakeTheServer)
{
    // Between calls the server sleeps on its stream's control block: a
    // write elsewhere in its memory charges its CPU no poll check.
    runClient([this](VrpcClient &c) -> sim::Task<> {
        AcceptStat st = co_await c.call(0, nullptr, nullptr);
        EXPECT_EQ(st, AcceptStat::Success);
        node::Process &server = serverEp_.proc();
        node::Process &client = clientEp_.proc();
        co_await client.compute(units::ms); // the call's acks have landed
        const std::uint64_t uses = server.node().cpu().stats().get("uses");
        server.poke32(server.alloc(4096), 1);
        co_await client.compute(units::ms);
        EXPECT_EQ(server.node().cpu().stats().get("uses"), uses);
        st = co_await c.call(0, nullptr, nullptr);
        EXPECT_EQ(st, AcceptStat::Success);
    });
}

TEST_F(RpcTest, NullCallLatencyNearPaper)
{
    // Paper: ~29 us round trip for a null VRPC.
    Tick elapsed = 0;
    sys_.sim().spawn([](vmmc::Endpoint &ep, Tick &elapsed) -> sim::Task<> {
        VrpcClient client(ep);
        co_await client.connect(1, 5000, kProg, kVers);
        // warm-up
        co_await client.call(0, nullptr, nullptr);
        Tick t0 = ep.proc().sim().now();
        const int iters = 10;
        for (int i = 0; i < iters; ++i)
            co_await client.call(0, nullptr, nullptr);
        elapsed = (ep.proc().sim().now() - t0) / iters;
    }(clientEp_, elapsed));
    sys_.sim().runAll();
    EXPECT_GT(elapsed, 20 * units::us);
    EXPECT_LT(elapsed, 40 * units::us);
}

TEST_F(RpcTest, IntArithmetic)
{
    runClient([](VrpcClient &c) -> sim::Task<> {
        std::int32_t sum = 0;
        AcceptStat st = co_await c.call(
            1,
            [](XdrEncoder &e) -> sim::Task<> {
                co_await e.putI32(-5);
                co_await e.putI32(300);
            },
            [&sum](XdrDecoder &d) -> sim::Task<> {
                sum = co_await d.getI32();
            });
        EXPECT_EQ(st, AcceptStat::Success);
        EXPECT_EQ(sum, 295);
    });
}

TEST_F(RpcTest, RepeatedCallsOnOneBinding)
{
    runClient([](VrpcClient &c) -> sim::Task<> {
        for (std::int32_t i = 0; i < 25; ++i) {
            std::int32_t sum = 0;
            AcceptStat st = co_await c.call(
                1,
                [i](XdrEncoder &e) -> sim::Task<> {
                    co_await e.putI32(i);
                    co_await e.putI32(1000);
                },
                [&sum](XdrDecoder &d) -> sim::Task<> {
                    sum = co_await d.getI32();
                });
            EXPECT_EQ(st, AcceptStat::Success);
            EXPECT_EQ(sum, 1000 + i);
        }
    });
    EXPECT_EQ(server_.callsServed(), 25u);
}

TEST_F(RpcTest, OpaqueEchoLargerThanQueue)
{
    // 100 KB through a 32 KB cyclic queue: wraps and flow-controls.
    runClient([](VrpcClient &c) -> sim::Task<> {
        auto data = test::pattern(100 * 1000, 31);
        std::vector<std::uint8_t> echoed;
        AcceptStat st = co_await c.call(
            2,
            [&data](XdrEncoder &e) -> sim::Task<> {
                co_await e.putBytes(data.data(), data.size());
            },
            [&echoed](XdrDecoder &d) -> sim::Task<> {
                echoed = co_await d.getBytes(1 << 20);
            });
        EXPECT_EQ(st, AcceptStat::Success);
        EXPECT_EQ(echoed, data);
    });
}

TEST_F(RpcTest, StringProcessing)
{
    runClient([](VrpcClient &c) -> sim::Task<> {
        std::uint32_t len = 0;
        std::string rev;
        AcceptStat st = co_await c.call(
            3,
            [](XdrEncoder &e) -> sim::Task<> {
                co_await e.putString("shrimp rpc");
            },
            [&](XdrDecoder &d) -> sim::Task<> {
                len = co_await d.getU32();
                rev = co_await d.getString(4096);
            });
        EXPECT_EQ(st, AcceptStat::Success);
        EXPECT_EQ(len, 10u);
        EXPECT_EQ(rev, "cpr pmirhs");
    });
}

TEST_F(RpcTest, HandlerReportedGarbageArgs)
{
    runClient([](VrpcClient &c) -> sim::Task<> {
        AcceptStat st = co_await c.call(4, nullptr, nullptr);
        EXPECT_EQ(st, AcceptStat::GarbageArgs);
    });
}

TEST_F(RpcTest, UnknownProcedureReturnsProcUnavail)
{
    runClient([](VrpcClient &c) -> sim::Task<> {
        AcceptStat st = co_await c.call(77, nullptr, nullptr);
        EXPECT_EQ(st, AcceptStat::ProcUnavail);
    });
}

TEST_F(RpcTest, UnknownProgramReturnsProgUnavail)
{
    sys_.sim().spawn([](vmmc::Endpoint &ep) -> sim::Task<> {
        VrpcClient client(ep);
        bool up = co_await client.connect(1, 5000, 0xBAD, 9);
        EXPECT_TRUE(up);
        AcceptStat st = co_await client.call(0, nullptr, nullptr);
        EXPECT_EQ(st, AcceptStat::ProgUnavail);
    }(clientEp_));
    sys_.sim().runAll();
}

TEST_F(RpcTest, TwoClientsShareOneServer)
{
    vmmc::Endpoint &client2 = sys_.createEndpoint(2);
    auto worker = [](vmmc::Endpoint &ep, std::int32_t base) -> sim::Task<> {
        VrpcClient client(ep);
        bool up = co_await client.connect(1, 5000, kProg, kVers);
        EXPECT_TRUE(up);
        for (std::int32_t i = 0; i < 10; ++i) {
            std::int32_t sum = 0;
            co_await client.call(
                1,
                [base, i](XdrEncoder &e) -> sim::Task<> {
                    co_await e.putI32(base);
                    co_await e.putI32(i);
                },
                [&sum](XdrDecoder &d) -> sim::Task<> {
                    sum = co_await d.getI32();
                });
            EXPECT_EQ(sum, base + i);
        }
    };
    sys_.sim().spawn(worker(clientEp_, 1000));
    sys_.sim().spawn(worker(client2, 2000));
    sys_.sim().runAll();
    EXPECT_EQ(server_.callsServed(), 20u);
    EXPECT_EQ(server_.connections(), 2u);
}

TEST_F(RpcTest, ConnectToWrongPortFailsCleanly)
{
    // Nothing listens on port 5999: the connect blocks forever waiting
    // for a reply (the Ethernet gives no RST); a watchdog confirms no
    // crash and no spurious success.
    sys_.sim().spawn([](vmmc::Endpoint &ep) -> sim::Task<> {
        VrpcClient client(ep);
        (void)client;
        co_return;
    }(clientEp_));
    EXPECT_NO_THROW(sys_.sim().runAll());
}

TEST_F(RpcTest, DuProtocolOptionDeliversSameResults)
{
    VrpcOptions opt;
    opt.proto = sock::StreamProto::DuTwoCopy;
    sys_.sim().spawn([](vmmc::Endpoint &ep, VrpcOptions opt)
                         -> sim::Task<> {
        VrpcClient client(ep, opt);
        bool up = co_await client.connect(1, 5000, kProg, kVers);
        EXPECT_TRUE(up);
        auto data = test::pattern(5000, 8);
        std::vector<std::uint8_t> echoed;
        AcceptStat st = co_await client.call(
            2,
            [&data](XdrEncoder &e) -> sim::Task<> {
                co_await e.putBytes(data.data(), data.size());
            },
            [&echoed](XdrDecoder &d) -> sim::Task<> {
                echoed = co_await d.getBytes(1 << 20);
            });
        EXPECT_EQ(st, AcceptStat::Success);
        EXPECT_EQ(echoed, data);
    }(clientEp_, opt));
    sys_.sim().runAll();
}

} // namespace
} // namespace shrimp::rpc

namespace shrimp::rpc
{
namespace
{

TEST_F(RpcTest, MixedTypeArgumentsSurviveTheWire)
{
    // A procedure taking a struct-like mix: u32, double, string, and an
    // array of i32 — exercising every XDR shape through a live binding.
    server_.registerProc(
        kProg, kVers, 9,
        [](XdrDecoder &dec) -> sim::Task<VrpcServer::ServiceResult> {
            std::uint32_t id = co_await dec.getU32();
            double scale = co_await dec.getDouble();
            std::string tag = co_await dec.getString(64);
            auto nums = co_await dec.getArray<std::int32_t>(
                64, [](XdrDecoder &d) -> sim::Task<std::int32_t> {
                    std::int32_t v = co_await d.getI32();
                    co_return v;
                });
            VrpcServer::ServiceResult r;
            r.results = [id, scale, tag,
                         nums](XdrEncoder &enc) -> sim::Task<> {
                double sum = 0;
                for (auto n : nums)
                    sum += n * scale;
                co_await enc.putU32(id);
                co_await enc.putDouble(sum);
                co_await enc.putString(tag + "!");
            };
            co_return r;
        });

    runClient([](VrpcClient &c) -> sim::Task<> {
        std::uint32_t id = 0;
        double sum = 0;
        std::string tag;
        AcceptStat st = co_await c.call(
            9,
            [](XdrEncoder &e) -> sim::Task<> {
                co_await e.putU32(777);
                co_await e.putDouble(2.5);
                co_await e.putString("mix");
                std::vector<std::int32_t> nums{1, -2, 3, -4};
                co_await e.putArray(
                    nums, [](XdrEncoder &e,
                             std::int32_t v) -> sim::Task<> {
                        co_await e.putI32(v);
                    });
            },
            [&](XdrDecoder &d) -> sim::Task<> {
                id = co_await d.getU32();
                sum = co_await d.getDouble();
                tag = co_await d.getString(64);
            });
        EXPECT_EQ(st, AcceptStat::Success);
        EXPECT_EQ(id, 777u);
        EXPECT_DOUBLE_EQ(sum, (1 - 2 + 3 - 4) * 2.5);
        EXPECT_EQ(tag, "mix!");
    });
}

TEST_F(RpcTest, BackToBackCallsFromReconnectedClient)
{
    // Close and reconnect: a fresh binding must work (fresh queues,
    // fresh xids).
    sys_.sim().spawn([](vmmc::Endpoint &ep) -> sim::Task<> {
        for (int round = 0; round < 3; ++round) {
            VrpcClient client(ep);
            bool up = co_await client.connect(1, 5000, kProg, kVers);
            EXPECT_TRUE(up);
            std::int32_t sum = 0;
            AcceptStat st = co_await client.call(
                1,
                [round](XdrEncoder &e) -> sim::Task<> {
                    co_await e.putI32(round);
                    co_await e.putI32(10);
                },
                [&sum](XdrDecoder &d) -> sim::Task<> {
                    sum = co_await d.getI32();
                });
            EXPECT_EQ(st, AcceptStat::Success);
            EXPECT_EQ(sum, 10 + round);
            co_await client.close();
        }
    }(clientEp_));
    sys_.sim().runAll();
    EXPECT_EQ(server_.connections(), 3u);
}

TEST_F(RpcTest, ServerSurvivesClientThatNeverCalls)
{
    // A client binds and immediately closes; the server's per-binding
    // task must exit cleanly on the FIN, leaving the server serving.
    sys_.sim().spawn([](vmmc::Endpoint &ep) -> sim::Task<> {
        VrpcClient idle(ep);
        bool up = co_await idle.connect(1, 5000, kProg, kVers);
        EXPECT_TRUE(up);
        co_await idle.close();

        VrpcClient real(ep);
        up = co_await real.connect(1, 5000, kProg, kVers);
        EXPECT_TRUE(up);
        AcceptStat st = co_await real.call(0, nullptr, nullptr);
        EXPECT_EQ(st, AcceptStat::Success);
        co_await real.close();
    }(clientEp_));
    sys_.sim().runAll();
    EXPECT_EQ(server_.callsServed(), 1u);
}

} // namespace
} // namespace shrimp::rpc
