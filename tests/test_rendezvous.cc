/**
 * @file
 * Tests for the one Ethernet rendezvous (node/ether.hh) and its users.
 * The exchange itself: a frame decodes only at its exact size, and a
 * one-shot request names its reply port and takes one reply. Export
 * keys come from each endpoint, so two libraries of each kind bind on
 * one endpoint. Hostile peers: a raw sender feeds malformed frames to
 * the socket listener, the VRPC and SRPC servers and a daemon, and
 * each drops them with one warning and binds the next well-formed
 * client; a daemon request that names another node than the one its
 * frame came from is refused; an SRPC call to a procedure the server
 * does not serve is refused and the binding serves on; a client whose
 * answer is malformed fails with the value its call returns. Every run
 * drains with no task left blocked (runAll panics on a deadlock).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "rpc/server.hh"
#include "sock/socket.hh"
#include "srpc/srpc.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

using node::EtherFrame;
using node::EtherNet;
using node::Hello;
using Bytes = std::vector<std::uint8_t>;

constexpr std::uint32_t kProg = 0x20000001;
constexpr std::uint16_t kSockPort = 4000;
constexpr std::uint16_t kVrpcPort = 5000;
constexpr std::uint16_t kSrpcPort = 6000;
constexpr std::size_t kMsg = 64;

/** Collects stderr, at warning verbosity, until text() is called. */
class WarnCapture
{
  public:
    WarnCapture() : saved_(logging::verbosity)
    {
        logging::verbosity = 1;
        testing::internal::CaptureStderr();
    }

    ~WarnCapture()
    {
        if (open_)
            (void)text();
    }

    /** The captured text; ends the capture. */
    std::string
    text()
    {
        open_ = false;
        logging::verbosity = saved_;
        return testing::internal::GetCapturedStderr();
    }

  private:
    int saved_;
    bool open_ = true;
};

/** Occurrences of @p needle in @p text. */
int
occurrences(const std::string &text, const std::string &needle)
{
    int n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

/** The frames no listener under @p magic may take: the wrong size (0
 *  bytes, and a hello of its own cut to 11 or grown to 13) and a hello
 *  under a magic no library uses. */
std::vector<Bytes>
badHellos(std::uint32_t magic)
{
    const Bytes hello = EtherNet::encode(Hello{magic, 7});
    Bytes grown = hello;
    grown.push_back(0);
    return {Bytes{}, Bytes(hello.begin(), hello.begin() + 11), grown,
            EtherNet::encode(Hello{0xdeadbeef, 7})};
}

/** Send @p frames from a raw sender (node 2, port 9) to (@p node,
 *  @p port), before any client has a chance to. */
void
sendRaw(EtherNet &ether, NodeId node, std::uint16_t port,
        const std::vector<Bytes> &frames)
{
    for (const Bytes &f : frames)
        ether.send(2, 9, node, port, f);
}

/** A peer that is no server: answer the next frame on (@p node,
 *  @p port) with @p answer. */
sim::Task<>
answerWith(EtherNet &ether, NodeId node, std::uint16_t port, Bytes answer)
{
    EtherFrame req = co_await ether.rxQueue(node, port).recv();
    ether.send(node, port, req.src, req.srcPort, std::move(answer));
}

// ---- the exchange -------------------------------------------------------

TEST(Rendezvous, DecodeTakesOnlyTheExactSize)
{
    EtherFrame f;
    for (std::size_t n : {0, 11, 13}) {
        f.data.assign(n, 0);
        EXPECT_FALSE(EtherNet::decode<Hello>(f)) << n << " bytes";
    }
    f.data = EtherNet::encode(Hello{1, 2, 3, 4});
    ASSERT_EQ(f.data.size(), 12u);
    const std::optional<Hello> h = EtherNet::decode<Hello>(f);
    ASSERT_TRUE(h);
    EXPECT_EQ(h->magic, 1u);
    EXPECT_EQ(h->key, 2u);
    EXPECT_EQ(h->replyPort, 3u);
}

TEST(Rendezvous, RequestNamesItsReplyPortAndTakesOneReply)
{
    node::Machine m;
    EtherNet &ether = m.ether();
    const std::size_t live0 = ether.liveQueues();
    m.sim().spawn([](EtherNet &ether) -> sim::Task<> {
        const EtherFrame req = co_await ether.rxQueue(1, 700).recv();
        const std::optional<Hello> h = EtherNet::decode<Hello>(req);
        if (!h) {
            ADD_FAILURE() << "request is not a hello";
            co_return;
        }
        EXPECT_EQ(h->replyPort, req.srcPort);
        EXPECT_GE(req.srcPort, 1024u);
        EXPECT_EQ(req.dst, 1);
        EXPECT_EQ(req.dstPort, 700);
        ether.reply(req, Hello{h->magic, h->key + 1});
    }(ether));
    std::optional<Hello> got;
    test::runTask(m.sim(), [](EtherNet &ether,
                              std::optional<Hello> &got) -> sim::Task<> {
        got = co_await ether.request<Hello>(0, 1, 700, Hello{0x1234, 41});
    }(ether, got));
    ASSERT_TRUE(got);
    EXPECT_EQ(got->magic, 0x1234u);
    EXPECT_EQ(got->key, 42u);
    // The reply port's queue went with its reply; the listener's stays.
    EXPECT_EQ(ether.liveQueues(), live0 + 1);
}

TEST(Rendezvous, RequestGivesNothingForAMalformedReply)
{
    node::Machine m;
    EtherNet &ether = m.ether();
    m.sim().spawn(answerWith(ether, 1, 700, Bytes(5, 1)));
    std::optional<Hello> got = Hello{};
    test::runTask(m.sim(), [](EtherNet &ether,
                              std::optional<Hello> &got) -> sim::Task<> {
        got = co_await ether.request<Hello>(0, 1, 700, Hello{});
    }(ether, got));
    EXPECT_FALSE(got);
}

// ---- export keys ----------------------------------------------------------

TEST(EndpointKeys, HoldNodeAndPidAndNeverRepeat)
{
    vmmc::System sys;
    vmmc::Endpoint &a = sys.createEndpoint(3);
    vmmc::Endpoint &b = sys.createEndpoint(3);
    std::set<std::uint32_t> keys;
    for (int i = 0; i < 4096; ++i) {
        for (vmmc::Endpoint *ep : {&a, &b}) {
            const std::uint32_t k = ep->newKey();
            keys.insert(k);
            // The top bit keeps library keys clear of NX's derived keys
            // (0x4E58..., 0x4E59...) and of small hand-picked ones.
            EXPECT_NE(k & 0x80000000u, 0u);
            EXPECT_EQ((k >> 20) & 0x7ffu, ep->nodeId());
            EXPECT_EQ(int((k >> 12) & 0xffu), ep->pid());
        }
    }
    EXPECT_EQ(keys.size(), 2u * 4096u);
    // Running out is an error, never a wrap onto a key in use.
    EXPECT_THROW((void)a.newKey(), FatalError);
}

TEST(Rendezvous, TwoLibrariesOfEachKindBindOnOneEndpoint)
{
    vmmc::System sys;
    vmmc::Endpoint &server = sys.createEndpoint(1);
    vmmc::Endpoint &client = sys.createEndpoint(0);

    rpc::VrpcServer vrpc(server, kVrpcPort);
    vrpc.registerProc(kProg, 1, 1,
                      [](rpc::XdrDecoder &dec)
                          -> sim::Task<rpc::VrpcServer::ServiceResult> {
                          const std::int32_t a = co_await dec.getI32();
                          rpc::VrpcServer::ServiceResult r;
                          r.results = [a](rpc::XdrEncoder &enc)
                              -> sim::Task<> { co_await enc.putI32(a + 1); };
                          co_return r;
                      });
    vrpc.start();
    srpc::Interface iface;
    const std::uint32_t inc =
        iface.defineProc("inc", {{srpc::Dir::In, 4}, {srpc::Dir::Out, 4}});
    srpc::SrpcServer srpc(server, iface, kSrpcPort);
    srpc.registerProc(inc, [](srpc::ServerCall &c) -> sim::Task<> {
        std::int32_t v = 0;
        co_await c.getArg(0, &v);
        ++v;
        co_await c.putOut(1, &v);
    });
    srpc.start();

    int done = 0;
    for (int i = 0; i < 2; ++i) {
        const std::uint16_t port = std::uint16_t(kSockPort + i);
        // A listening library of its own per connection on the server,
        // and a connecting one on the client: four on two endpoints.
        sys.sim().spawn([](vmmc::Endpoint &ep, std::uint16_t port,
                           int &done) -> sim::Task<> {
            sock::SocketLib lib(ep);
            const int ls = co_await lib.socket();
            co_await lib.listen(ls, port);
            const int fd = co_await lib.accept(ls);
            EXPECT_GE(fd, 0);
            const VAddr buf = ep.proc().alloc(4096);
            EXPECT_EQ(co_await lib.recvAll(fd, buf, kMsg), long(kMsg));
            Bytes got(kMsg);
            ep.proc().peek(buf, got.data(), kMsg);
            EXPECT_EQ(got, test::pattern(kMsg, port));
            ++done;
        }(server, port, done));
        sys.sim().spawn([](vmmc::Endpoint &ep, std::uint16_t port,
                           int &done) -> sim::Task<> {
            sock::SocketLib lib(ep);
            const int fd = co_await lib.socket();
            EXPECT_EQ(co_await lib.connect(fd, 1, port), 0);
            const VAddr buf = ep.proc().alloc(4096);
            const Bytes data = test::pattern(kMsg, port);
            ep.proc().poke(buf, data.data(), kMsg);
            EXPECT_EQ(co_await lib.send(fd, buf, kMsg), long(kMsg));
            ++done;
        }(client, port, done));
        sys.sim().spawn([](vmmc::Endpoint &ep, std::int32_t arg,
                           int &done) -> sim::Task<> {
            rpc::VrpcClient c(ep);
            EXPECT_TRUE(co_await c.connect(1, kVrpcPort, kProg, 1));
            std::int32_t res = 0;
            const rpc::AcceptStat st = co_await c.call(
                1,
                [arg](rpc::XdrEncoder &e) -> sim::Task<> {
                    co_await e.putI32(arg);
                },
                [&res](rpc::XdrDecoder &d) -> sim::Task<> {
                    res = co_await d.getI32();
                });
            EXPECT_EQ(st, rpc::AcceptStat::Success);
            EXPECT_EQ(res, arg + 1);
            ++done;
        }(client, 10 * i, done));
        sys.sim().spawn([](vmmc::Endpoint &ep, const srpc::Interface &iface,
                           std::uint32_t inc, std::int32_t arg,
                           int &done) -> sim::Task<> {
            srpc::SrpcClient c(ep, iface);
            EXPECT_TRUE(co_await c.bind(1, kSrpcPort));
            std::int32_t res = 0;
            std::vector<srpc::Param> ps{srpc::in(&arg, 4),
                                        srpc::out(&res, 4)};
            co_await c.call(inc, ps);
            EXPECT_EQ(res, arg + 1);
            ++done;
        }(client, iface, inc, 20 * i, done));
    }
    sys.sim().runAll();
    EXPECT_EQ(done, 8);
    EXPECT_EQ(vrpc.connections(), 2u);
    EXPECT_EQ(srpc.callsServed(), 2u);
}

// ---- hostile peers: servers -----------------------------------------------

TEST(HostilePeer, SocketListenerDropsMalformedHellos)
{
    vmmc::System sys;
    vmmc::Endpoint &server = sys.createEndpoint(1);
    vmmc::Endpoint &client = sys.createEndpoint(0);
    WarnCapture warns;
    sendRaw(sys.machine().ether(), 1, kSockPort,
            badHellos(sock::sockMagic));
    sys.sim().spawn([](vmmc::Endpoint &ep) -> sim::Task<> {
        sock::SocketLib lib(ep);
        const int ls = co_await lib.socket();
        co_await lib.listen(ls, kSockPort);
        const int fd = co_await lib.accept(ls);
        EXPECT_GE(fd, 0);
        const VAddr buf = ep.proc().alloc(4096);
        EXPECT_EQ(co_await lib.recvAll(fd, buf, kMsg), long(kMsg));
        Bytes got(kMsg);
        ep.proc().peek(buf, got.data(), kMsg);
        EXPECT_EQ(got, test::pattern(kMsg, 1));
    }(server));
    sys.sim().spawn([](vmmc::Endpoint &ep) -> sim::Task<> {
        sock::SocketLib lib(ep);
        const int fd = co_await lib.socket();
        EXPECT_EQ(co_await lib.connect(fd, 1, kSockPort), 0);
        const VAddr buf = ep.proc().alloc(4096);
        const Bytes data = test::pattern(kMsg, 1);
        ep.proc().poke(buf, data.data(), kMsg);
        EXPECT_EQ(co_await lib.send(fd, buf, kMsg), long(kMsg));
    }(client));
    sys.sim().runAll();
    const std::string err = warns.text();
    EXPECT_EQ(occurrences(err, "warn: "), 4) << err;
    EXPECT_EQ(occurrences(err, "dropped a malformed"), 4) << err;
}

TEST(HostilePeer, VrpcServerDropsMalformedHellos)
{
    vmmc::System sys;
    vmmc::Endpoint &server = sys.createEndpoint(1);
    vmmc::Endpoint &client = sys.createEndpoint(0);
    rpc::VrpcServer vrpc(server, kVrpcPort);
    vrpc.registerProc(kProg, 1, 0,
                      [](rpc::XdrDecoder &)
                          -> sim::Task<rpc::VrpcServer::ServiceResult> {
                          co_return rpc::VrpcServer::ServiceResult{};
                      });
    WarnCapture warns;
    sendRaw(sys.machine().ether(), 1, kVrpcPort,
            badHellos(rpc::vrpcMagic));
    vrpc.start();
    test::runTask(sys.sim(), [](vmmc::Endpoint &ep) -> sim::Task<> {
        rpc::VrpcClient c(ep);
        EXPECT_TRUE(co_await c.connect(1, kVrpcPort, kProg, 1));
        EXPECT_EQ(co_await c.call(0, nullptr, nullptr),
                  rpc::AcceptStat::Success);
    }(client));
    const std::string err = warns.text();
    EXPECT_EQ(occurrences(err, "warn: "), 4) << err;
    EXPECT_EQ(occurrences(err, "dropped a malformed"), 4) << err;
    EXPECT_EQ(vrpc.connections(), 1u);
    EXPECT_EQ(vrpc.callsServed(), 1u);
}

TEST(HostilePeer, SrpcServerDropsMalformedHellos)
{
    vmmc::System sys;
    vmmc::Endpoint &server = sys.createEndpoint(1);
    vmmc::Endpoint &client = sys.createEndpoint(0);
    srpc::Interface iface;
    const std::uint32_t null = iface.defineProc("null", {});
    srpc::SrpcServer srpc(server, iface, kSrpcPort);
    srpc.registerProc(null,
                      [](srpc::ServerCall &) -> sim::Task<> { co_return; });
    WarnCapture warns;
    sendRaw(sys.machine().ether(), 1, kSrpcPort,
            badHellos(srpc::srpcMagic));
    srpc.start();
    test::runTask(sys.sim(), [](vmmc::Endpoint &ep,
                                const srpc::Interface &iface,
                                std::uint32_t null) -> sim::Task<> {
        srpc::SrpcClient c(ep, iface);
        EXPECT_TRUE(co_await c.bind(1, kSrpcPort));
        co_await c.call(null, {});
    }(client, iface, null));
    const std::string err = warns.text();
    EXPECT_EQ(occurrences(err, "warn: "), 4) << err;
    EXPECT_EQ(occurrences(err, "dropped a malformed"), 4) << err;
    EXPECT_EQ(srpc.callsServed(), 1u);
}

TEST(HostilePeer, DaemonDropsMalformedRequests)
{
    vmmc::System sys;
    vmmc::Endpoint &exporter = sys.createEndpoint(1);
    vmmc::Endpoint &importer = sys.createEndpoint(0);
    vmmc::DaemonMsg m; // an import request for key 7, from node 2
    m.srcNode = 2;
    m.key = 7;
    Bytes grown = EtherNet::encode(m);
    grown.push_back(0);
    std::vector<Bytes> bad = {Bytes{}, Bytes(11, 0xa5), Bytes(13, 0xa5),
                              grown};
    m.kind = vmmc::DaemonMsg::Kind(99); // no such kind
    bad.push_back(EtherNet::encode(m));
    m.kind = vmmc::DaemonMsg::Kind::ImportReply; // a reply, not a request
    bad.push_back(EtherNet::encode(m));
    WarnCapture warns;
    sendRaw(sys.machine().ether(), 1, EtherNet::daemonPort, bad);
    test::runTask(sys.sim(), [](vmmc::Endpoint &exp,
                                vmmc::Endpoint &imp) -> sim::Task<> {
        const VAddr recv = exp.proc().alloc(4096, CacheMode::WriteThrough);
        EXPECT_EQ(co_await exp.exportBuffer(7, recv, 4096),
                  vmmc::Status::Ok);
        const vmmc::ImportResult r = co_await imp.import(1, 7);
        EXPECT_EQ(r.status, vmmc::Status::Ok);
        const VAddr user = imp.proc().alloc(4096);
        imp.proc().poke32(user, 0xabcd);
        EXPECT_EQ(co_await imp.send(r.handle, 0, user, 4),
                  vmmc::Status::Ok);
        co_await exp.proc().waitWord32Eq(recv, 0xabcd);
    }(exporter, importer));
    const std::string err = warns.text();
    EXPECT_EQ(occurrences(err, "warn: "), 6) << err;
    EXPECT_EQ(occurrences(err, "dropped a malformed"), 6) << err;
}

/** A daemon request of @p kind for key 7 that claims to come from
 *  @p claimed (node @p claimed, process @p pid). */
vmmc::DaemonMsg
claiming(vmmc::DaemonMsg::Kind kind, NodeId claimed, int pid)
{
    vmmc::DaemonMsg m;
    m.kind = kind;
    m.key = 7;
    m.srcNode = claimed;
    m.srcPid = pid;
    return m;
}

TEST(HostilePeer, DaemonTakesTheImporterFromTheFrame)
{
    // Node 2 asks node 1's daemon for an export only node 0 may import,
    // naming node 0 as the requester: the frame says node 2.
    vmmc::System sys;
    vmmc::Endpoint &exporter = sys.createEndpoint(1);
    WarnCapture warns;
    std::optional<vmmc::DaemonMsg> got;
    test::runTask(sys.sim(), [](vmmc::Endpoint &exp,
                                std::optional<vmmc::DaemonMsg> &got)
                                 -> sim::Task<> {
        const VAddr recv = exp.proc().alloc(4096);
        const vmmc::Status st = co_await exp.exportBuffer(
            7, recv, 4096, vmmc::Perm::onlyNode(0));
        EXPECT_EQ(st, vmmc::Status::Ok);
        got = co_await exp.proc().node().ether().request<vmmc::DaemonMsg>(
            2, 1, EtherNet::daemonPort,
            claiming(vmmc::DaemonMsg::Kind::ImportReq, 0, 0));
    }(exporter, got));
    ASSERT_TRUE(got);
    EXPECT_EQ(got->kind, vmmc::DaemonMsg::Kind::ImportReply);
    EXPECT_EQ(got->status, vmmc::Status::PermissionDenied);
    const vmmc::ExportRecord *rec = sys.daemon(1).registry().find(7);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->importers.empty());
    const std::string err = warns.text();
    EXPECT_EQ(occurrences(err, "warn: "), 1) << err;
    EXPECT_EQ(occurrences(err, "refused a request from node 2 that "
                               "names node 0"),
              1)
        << err;
}

TEST(HostilePeer, ForgedUnimportAndRevokeLeaveARealImport)
{
    // Node 0 imports node 1's export. Node 2 then asks node 1's daemon to
    // drop node 0's importer record and node 0's daemon to revoke the
    // import, each time naming the node the request would come from.
    vmmc::System sys;
    vmmc::Endpoint &exporter = sys.createEndpoint(1);
    vmmc::Endpoint &importer = sys.createEndpoint(0);
    WarnCapture warns;
    test::runTask(sys.sim(), [](vmmc::Endpoint &exp,
                                vmmc::Endpoint &imp) -> sim::Task<> {
        using Kind = vmmc::DaemonMsg::Kind;
        const VAddr recv = exp.proc().alloc(4096, CacheMode::WriteThrough);
        vmmc::Status st = co_await exp.exportBuffer(
            7, recv, 4096, vmmc::Perm::onlyNode(0));
        EXPECT_EQ(st, vmmc::Status::Ok);
        const vmmc::ImportResult r = co_await imp.import(1, 7);
        EXPECT_EQ(r.status, vmmc::Status::Ok);

        EtherNet &ether = imp.proc().node().ether();
        const std::optional<vmmc::DaemonMsg> unimported =
            co_await ether.request<vmmc::DaemonMsg>(
                2, 1, EtherNet::daemonPort,
                claiming(Kind::UnimportReq, 0, imp.pid()));
        EXPECT_TRUE(unimported &&
                    unimported->status == vmmc::Status::PermissionDenied);
        const std::optional<vmmc::DaemonMsg> revoked =
            co_await ether.request<vmmc::DaemonMsg>(
                2, 0, EtherNet::daemonPort,
                claiming(Kind::RevokeReq, 1, exp.pid()));
        EXPECT_TRUE(revoked &&
                    revoked->status == vmmc::Status::PermissionDenied);

        // The import still carries data.
        const VAddr user = imp.proc().alloc(4096);
        imp.proc().poke32(user, 0xabcd);
        st = co_await imp.send(r.handle, 0, user, 4);
        EXPECT_EQ(st, vmmc::Status::Ok);
        co_await exp.proc().waitWord32Eq(recv, 0xabcd);
    }(exporter, importer));
    const vmmc::ExportRecord *rec = sys.daemon(1).registry().find(7);
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(rec->importers.size(), 1u);
    EXPECT_EQ(rec->importers[0].node, 0);
    const std::string err = warns.text();
    EXPECT_EQ(occurrences(err, "warn: "), 2) << err;
    EXPECT_EQ(occurrences(err, "refused a request from node 2"), 2) << err;
}

TEST(HostilePeer, SrpcServerRefusesAnUnknownProcedure)
{
    // The client's interface has one procedure more than the server's,
    // laid out alike. A call to it is refused with a warning, and the
    // binding serves the next call.
    vmmc::System sys;
    vmmc::Endpoint &server = sys.createEndpoint(1);
    vmmc::Endpoint &client = sys.createEndpoint(0);
    srpc::Interface served;
    const std::uint32_t inc =
        served.defineProc("inc", {{srpc::Dir::InOut, 4}});
    srpc::Interface wider = served;
    const std::uint32_t extra =
        wider.defineProc("extra", {{srpc::Dir::InOut, 4}});
    srpc::SrpcServer srv(server, served, kSrpcPort);
    srv.registerProc(inc, [](srpc::ServerCall &call) -> sim::Task<> {
        std::uint32_t v = 0;
        co_await call.getArg(0, &v);
        ++v;
        co_await call.putArg(0, &v);
    });
    srv.start();
    WarnCapture warns;
    test::runTask(sys.sim(), [](vmmc::Endpoint &ep,
                                const srpc::Interface &iface,
                                std::uint32_t inc,
                                std::uint32_t extra) -> sim::Task<> {
        srpc::SrpcClient c(ep, iface);
        const bool up = co_await c.bind(1, kSrpcPort);
        EXPECT_TRUE(up);
        std::uint32_t v = 41;
        const std::vector<srpc::Param> ps{srpc::inout(&v, 4)};
        const bool refused = co_await c.call(extra, ps);
        EXPECT_FALSE(refused);
        EXPECT_EQ(v, 41u);
        const bool ran = co_await c.call(inc, ps);
        EXPECT_TRUE(ran);
        EXPECT_EQ(v, 42u);
    }(client, wider, inc, extra));
    const std::string err = warns.text();
    EXPECT_EQ(occurrences(err, "warn: "), 1) << err;
    EXPECT_EQ(occurrences(err, "refused a call to procedure 1"), 1) << err;
    EXPECT_EQ(srv.callsServed(), 1u);
}

// ---- hostile peers: clients -----------------------------------------------

/** Answers a request must not accept: the wrong size, and a hello under
 *  the wrong magic. */
std::vector<Bytes>
badAnswers()
{
    return {Bytes(5, 1), EtherNet::encode(Hello{0xdeadbeef, 7})};
}

/** A peer on @p ep's node that is no server: it exports a region under
 *  key 7, big enough for any binding to attach to, then answers the
 *  next frame on @p port with @p answer. The binding must fail even
 *  where the answer names that key. */
sim::Task<>
impostor(vmmc::Endpoint &ep, std::uint16_t port, Bytes answer)
{
    constexpr std::size_t bytes = 64 * 1024;
    const VAddr region = ep.proc().alloc(bytes);
    const vmmc::Status st = co_await ep.exportBuffer(7, region, bytes);
    EXPECT_EQ(st, vmmc::Status::Ok);
    co_await answerWith(ep.proc().node().ether(), ep.nodeId(), port,
                        std::move(answer));
}

TEST(HostilePeer, SocketConnectFailsOnAMalformedAnswer)
{
    for (const Bytes &answer : badAnswers()) {
        vmmc::System sys;
        vmmc::Endpoint &client = sys.createEndpoint(0);
        sys.sim().spawn(impostor(sys.createEndpoint(1), kSockPort, answer));
        test::runTask(sys.sim(), [](vmmc::Endpoint &ep) -> sim::Task<> {
            sock::SocketLib lib(ep);
            const int fd = co_await lib.socket();
            EXPECT_EQ(co_await lib.connect(fd, 1, kSockPort), -1);
            const VAddr buf = ep.proc().alloc(4096);
            EXPECT_EQ(co_await lib.send(fd, buf, 4), -1);
            EXPECT_EQ(co_await lib.close(fd), 0);
        }(client));
    }
}

TEST(HostilePeer, VrpcConnectFailsOnAMalformedAnswer)
{
    for (const Bytes &answer : badAnswers()) {
        vmmc::System sys;
        vmmc::Endpoint &client = sys.createEndpoint(0);
        sys.sim().spawn(impostor(sys.createEndpoint(1), kVrpcPort, answer));
        test::runTask(sys.sim(), [](vmmc::Endpoint &ep) -> sim::Task<> {
            rpc::VrpcClient c(ep);
            EXPECT_FALSE(co_await c.connect(1, kVrpcPort, kProg, 1));
            EXPECT_FALSE(c.connected());
        }(client));
    }
}

TEST(HostilePeer, SrpcBindFailsOnAMalformedAnswer)
{
    srpc::Interface iface;
    iface.defineProc("null", {});
    for (const Bytes &answer : badAnswers()) {
        vmmc::System sys;
        vmmc::Endpoint &client = sys.createEndpoint(0);
        sys.sim().spawn(impostor(sys.createEndpoint(1), kSrpcPort, answer));
        test::runTask(sys.sim(), [](vmmc::Endpoint &ep,
                                    const srpc::Interface &iface)
                                     -> sim::Task<> {
            srpc::SrpcClient c(ep, iface);
            EXPECT_FALSE(co_await c.bind(1, kSrpcPort));
        }(client, iface));
    }
}

TEST(HostilePeer, ImportFailsOnAMalformedDaemonReply)
{
    vmmc::DaemonMsg wrongId;
    wrongId.reqId = 999; // answers no request this daemon made
    for (const Bytes &answer : {Bytes(5, 1), EtherNet::encode(wrongId)}) {
        // Node 1 runs no daemon: the raw peer answers its daemon port.
        node::Machine m;
        vmmc::Daemon daemon(m.node(0), m.ether());
        daemon.start();
        vmmc::Endpoint ep(m.spawnProcess(0), daemon);
        m.sim().spawn(answerWith(m.ether(), 1, EtherNet::daemonPort,
                                 answer));
        vmmc::Status st = vmmc::Status::Ok;
        test::runTask(m.sim(), [](vmmc::Endpoint &ep,
                                  vmmc::Status &st) -> sim::Task<> {
            const vmmc::ImportResult r = co_await ep.import(1, 7);
            st = r.status;
        }(ep, st));
        EXPECT_EQ(st, vmmc::Status::BadReply);
    }
}

} // namespace
} // namespace shrimp
