/**
 * @file
 * Cross-module integration tests: several libraries sharing one
 * machine, larger meshes, teardown/reuse, and end-to-end statistics
 * consistency.
 */

#include <gtest/gtest.h>

#include "nx/nx.hh"
#include "rpc/server.hh"
#include "sock/socket.hh"
#include "srpc/srpc.hh"
#include "test_util.hh"

namespace shrimp
{
namespace
{

TEST(Integration, NxAndSocketsShareTheMachine)
{
    vmmc::System sys;
    nx::NxSystem nxs(sys, 2); // ranks on nodes 0 and 1
    test::runTask(sys.sim(), nxs.init());
    vmmc::Endpoint &sockServer = sys.createEndpoint(2);
    vmmc::Endpoint &sockClient = sys.createEndpoint(3);

    int done = 0;
    // NX ping-pong between nodes 0 and 1.
    sys.sim().spawn([](nx::NxSystem &nxs, int &done) -> sim::Task<> {
        auto &p = nxs.proc(0);
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(4096);
        for (int i = 0; i < 10; ++i) {
            co_await p.csend(1, buf, 1024, 1);
            co_await p.crecv(2, buf, 4096);
        }
        ++done;
    }(nxs, done));
    sys.sim().spawn([](nx::NxSystem &nxs, int &done) -> sim::Task<> {
        auto &p = nxs.proc(1);
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(4096);
        for (int i = 0; i < 10; ++i) {
            co_await p.crecv(1, buf, 4096);
            co_await p.csend(2, buf, 1024, 0);
        }
        ++done;
    }(nxs, done));
    // Socket transfer between nodes 2 and 3, concurrently.
    auto data = test::pattern(60000, 55);
    sys.sim().spawn([](vmmc::Endpoint &ep,
                       std::vector<std::uint8_t> expect,
                       int &done) -> sim::Task<> {
        sock::SocketLib lib(ep);
        int ls = co_await lib.socket();
        co_await lib.listen(ls, 7100);
        int fd = co_await lib.accept(ls);
        VAddr buf = ep.proc().alloc(expect.size());
        long n = co_await lib.recvAll(fd, buf, expect.size());
        EXPECT_EQ(n, long(expect.size()));
        std::vector<std::uint8_t> got(expect.size());
        ep.proc().peek(buf, got.data(), got.size());
        EXPECT_EQ(got, expect);
        ++done;
    }(sockServer, data, done));
    sys.sim().spawn([](vmmc::Endpoint &ep,
                       std::vector<std::uint8_t> data,
                       int &done) -> sim::Task<> {
        sock::SocketLib lib(ep);
        int fd = co_await lib.socket();
        EXPECT_EQ(co_await lib.connect(fd, 2, 7100), 0);
        VAddr buf = ep.proc().alloc(data.size());
        ep.proc().poke(buf, data.data(), data.size());
        co_await lib.send(fd, buf, data.size());
        co_await lib.close(fd);
        ++done;
    }(sockClient, data, done));
    sys.sim().runAll();
    EXPECT_EQ(done, 4);
}

TEST(Integration, RpcServerCoexistsWithNxRank)
{
    // One process runs an NX rank while another process on the *same
    // node* serves VRPC: user-level libraries do not interfere.
    vmmc::System sys;
    nx::NxSystem nxs(sys, 2);
    test::runTask(sys.sim(), nxs.init());
    vmmc::Endpoint &rpcServerEp = sys.createEndpoint(1);
    vmmc::Endpoint &rpcClientEp = sys.createEndpoint(2);

    rpc::VrpcServer server(rpcServerEp, 7200);
    server.registerProc(
        7, 1, 1,
        [](rpc::XdrDecoder &dec)
            -> sim::Task<rpc::VrpcServer::ServiceResult> {
            std::int32_t x = co_await dec.getI32();
            rpc::VrpcServer::ServiceResult r;
            r.results = [x](rpc::XdrEncoder &enc) -> sim::Task<> {
                co_await enc.putI32(x * 2);
            };
            co_return r;
        });
    server.start();

    int done = 0;
    sys.sim().spawn([](nx::NxSystem &nxs, int &done) -> sim::Task<> {
        auto &p = nxs.proc(0);
        VAddr buf = p.endpoint().proc().alloc(4096);
        for (int i = 0; i < 5; ++i) {
            co_await p.csend(9, buf, 2048, 1);
            co_await p.crecv(10, buf, 4096);
        }
        ++done;
    }(nxs, done));
    sys.sim().spawn([](nx::NxSystem &nxs, int &done) -> sim::Task<> {
        auto &p = nxs.proc(1);
        VAddr buf = p.endpoint().proc().alloc(4096);
        for (int i = 0; i < 5; ++i) {
            co_await p.crecv(9, buf, 4096);
            co_await p.csend(10, buf, 2048, 0);
        }
        ++done;
    }(nxs, done));
    sys.sim().spawn([](vmmc::Endpoint &ep, int &done) -> sim::Task<> {
        rpc::VrpcClient client(ep);
        bool up = co_await client.connect(1, 7200, 7, 1);
        EXPECT_TRUE(up);
        for (std::int32_t i = 0; i < 8; ++i) {
            std::int32_t r = 0;
            co_await client.call(
                1,
                [i](rpc::XdrEncoder &e) -> sim::Task<> {
                    co_await e.putI32(i);
                },
                [&r](rpc::XdrDecoder &d) -> sim::Task<> {
                    r = co_await d.getI32();
                });
            EXPECT_EQ(r, 2 * i);
        }
        ++done;
    }(rpcClientEp, done));
    sys.sim().runAll();
    EXPECT_EQ(done, 3);
}

TEST(Integration, SixteenNodeNxRing)
{
    MachineConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.nodeMemBytes = 2 * units::MiB;
    vmmc::System sys(cfg);
    nx::NxSystem nxs(sys, 16);
    test::runTask(sys.sim(), nxs.init());

    // Token ring around 16 ranks, then a global sum.
    for (int r = 0; r < 16; ++r) {
        sys.sim().spawn([](nx::NxSystem &nxs, int r) -> sim::Task<> {
            auto &p = nxs.proc(r);
            auto &proc = p.endpoint().proc();
            VAddr buf = proc.alloc(4096);
            if (r == 0) {
                proc.poke32(buf, 1);
                co_await p.csend(1, buf, 4, 1);
                co_await p.crecv(1, buf, 4096);
                EXPECT_EQ(proc.peek32(buf), 16u);
            } else {
                co_await p.crecv(1, buf, 4096);
                std::uint32_t v = proc.peek32(buf);
                EXPECT_EQ(v, std::uint32_t(r));
                proc.poke32(buf, v + 1);
                co_await p.csend(1, buf, 4, (r + 1) % 16);
            }
            double s = co_await p.gdsum(1.0);
            EXPECT_DOUBLE_EQ(s, 16.0);
        }(nxs, r));
    }
    sys.sim().runAll();
    EXPECT_GT(sys.machine().mesh().packetsDelivered(), 0u);
}

TEST(Integration, SrpcOffloadFedBySockets)
{
    // A three-party pipeline: a socket feeds data to a middle process,
    // which offloads computation to an SRPC server.
    vmmc::System sys;
    vmmc::Endpoint &sourceEp = sys.createEndpoint(0);
    vmmc::Endpoint &middleEp = sys.createEndpoint(2);
    vmmc::Endpoint &computeEp = sys.createEndpoint(3);

    srpc::Interface iface;
    std::uint32_t pSum = iface.defineProc(
        "sum", {{srpc::Dir::In, 1024}, {srpc::Dir::Out, 8}});
    srpc::SrpcServer server(computeEp, iface, 7300);
    server.registerProc(pSum, [](srpc::ServerCall &c) -> sim::Task<> {
        std::vector<std::uint8_t> v(1024);
        co_await c.getArg(0, v.data());
        double sum = 0;
        for (auto x : v)
            sum += x;
        co_await c.putOut(1, &sum);
    });
    server.start();

    auto data = test::pattern(1024, 66);
    double expect = 0;
    for (auto x : data)
        expect += x;

    int done = 0;
    sys.sim().spawn([](vmmc::Endpoint &ep,
                       std::vector<std::uint8_t> data,
                       int &done) -> sim::Task<> {
        sock::SocketLib lib(ep);
        int fd = co_await lib.socket();
        EXPECT_EQ(co_await lib.connect(fd, 2, 7301), 0);
        VAddr buf = ep.proc().alloc(data.size());
        ep.proc().poke(buf, data.data(), data.size());
        co_await lib.send(fd, buf, data.size());
        co_await lib.close(fd);
        ++done;
    }(sourceEp, data, done));
    sys.sim().spawn([](vmmc::Endpoint &ep, const srpc::Interface &iface,
                       std::uint32_t pSum, double expect,
                       int &done) -> sim::Task<> {
        sock::SocketLib lib(ep);
        int ls = co_await lib.socket();
        co_await lib.listen(ls, 7301);
        int fd = co_await lib.accept(ls);
        VAddr buf = ep.proc().alloc(1024);
        long n = co_await lib.recvAll(fd, buf, 1024);
        EXPECT_EQ(n, 1024);
        std::vector<std::uint8_t> host(1024);
        ep.proc().peek(buf, host.data(), host.size());

        srpc::SrpcClient client(ep, iface);
        bool up = co_await client.bind(3, 7300);
        EXPECT_TRUE(up);
        double sum = 0;
        std::vector<srpc::Param> ps{srpc::in(host.data(), 1024),
                                    srpc::out(&sum, 8)};
        co_await client.call(pSum, ps);
        EXPECT_DOUBLE_EQ(sum, expect);
        ++done;
    }(middleEp, iface, pSum, expect, done));
    sys.sim().runAll();
    EXPECT_EQ(done, 2);
}

TEST(Integration, TeardownAndReuseKeysAcrossGenerations)
{
    vmmc::System sys;
    vmmc::Endpoint &a = sys.createEndpoint(0);
    vmmc::Endpoint &b = sys.createEndpoint(1);
    test::runTask(sys.sim(), [](vmmc::Endpoint &a,
                                vmmc::Endpoint &b) -> sim::Task<> {
        for (int gen = 0; gen < 3; ++gen) {
            VAddr rbuf = b.proc().alloc(4096);
            EXPECT_EQ(co_await b.exportBuffer(70, rbuf, 4096),
                      vmmc::Status::Ok);
            auto r = co_await a.import(1, 70);
            EXPECT_EQ(r.status, vmmc::Status::Ok);
            VAddr src = a.proc().alloc(4096);
            a.proc().poke32(src, std::uint32_t(gen + 1));
            EXPECT_EQ(co_await a.send(r.handle, 0, src, 4),
                      vmmc::Status::Ok);
            std::uint32_t v = co_await b.proc().waitWord32Ne(rbuf, 0);
            EXPECT_EQ(v, std::uint32_t(gen + 1));
            EXPECT_EQ(co_await a.unimport(r.handle), vmmc::Status::Ok);
            EXPECT_EQ(co_await b.unexport(70), vmmc::Status::Ok);
        }
    }(a, b));
}

TEST(Integration, MeshStatsAreConsistentWithNicCounts)
{
    vmmc::System sys;
    vmmc::Endpoint &a = sys.createEndpoint(0);
    vmmc::Endpoint &b = sys.createEndpoint(3); // 2 hops away
    test::runTask(sys.sim(), [](vmmc::Endpoint &a, vmmc::Endpoint &b,
                                vmmc::System &sys) -> sim::Task<> {
        VAddr rbuf = b.proc().alloc(8192);
        co_await b.exportBuffer(71, rbuf, 8192);
        auto r = co_await a.import(3, 71);
        VAddr src = a.proc().alloc(8192);
        co_await a.send(r.handle, 0, src, 8000);
        co_await b.proc().waitWord32Eq(rbuf, 0); // already zero: returns
        co_await a.proc().compute(units::ms);

        auto &sender = sys.machine().node(0).nic();
        auto &receiver = sys.machine().node(3).nic();
        EXPECT_GT(sender.packetsInjected(), 0u);
        EXPECT_EQ(receiver.incoming().packetsDelivered(),
                  sender.packetsInjected());
        EXPECT_EQ(receiver.incoming().bytesDelivered(), 8000u);
    }(a, b, sys));
}

TEST(Integration, OneShotRepliesLeaveNoEtherQueueBehind)
{
    // Daemon imports, socket connects and VRPC and SRPC binds each wait
    // for their reply on a fresh Ethernet port. Once the replies are
    // taken, only the daemons' and listeners' queues may remain.
    vmmc::System sys;
    node::EtherNet &ether = sys.machine().ether();
    vmmc::Endpoint &server = sys.createEndpoint(1);
    vmmc::Endpoint &client = sys.createEndpoint(0);
    rpc::VrpcServer vrpc(server, 7400);
    vrpc.start();
    srpc::Interface iface;
    iface.defineProc("nop", {{srpc::Dir::In, 4}});
    srpc::SrpcServer srpcServer(sys.createEndpoint(2), iface, 7500);
    srpcServer.start();

    constexpr int conns = 3, imports = 8;
    sock::SocketLib serverLib(server), clientLib(client);
    test::runTask(sys.sim(), [](vmmc::Endpoint &ep,
                                sock::SocketLib &lib) -> sim::Task<> {
        for (std::uint32_t key = 80; key < 80 + imports; ++key) {
            VAddr buf = ep.proc().alloc(4096);
            EXPECT_EQ(co_await ep.exportBuffer(key, buf, 4096),
                      vmmc::Status::Ok);
        }
        int ls = co_await lib.socket();
        co_await lib.listen(ls, 7600);
        // The acceptor parks on the listener's queue.
        ep.proc().sim().spawnDaemon(
            [](sock::SocketLib &lib, int ls) -> sim::Task<> {
                for (int i = 0; i < conns; ++i)
                    EXPECT_GE(co_await lib.accept(ls), 0);
            }(lib, ls));
    }(server, serverLib));
    const std::size_t live0 = ether.liveQueues();

    rpc::VrpcClient vrpcClient(client);
    srpc::SrpcClient srpcClient(client, iface);
    test::runTask(sys.sim(), [](vmmc::Endpoint &ep, sock::SocketLib &lib,
                                rpc::VrpcClient &vc,
                                srpc::SrpcClient &sc) -> sim::Task<> {
        for (std::uint32_t key = 80; key < 80 + imports; ++key)
            EXPECT_EQ((co_await ep.import(1, key)).status, vmmc::Status::Ok);
        for (int i = 0; i < conns; ++i) {
            int fd = co_await lib.socket();
            EXPECT_EQ(co_await lib.connect(fd, 1, 7600), 0);
        }
        EXPECT_TRUE(co_await vc.connect(1, 7400, 7, 1));
        EXPECT_TRUE(co_await sc.bind(2, 7500));
    }(client, clientLib, vrpcClient, srpcClient));
    EXPECT_GT(ether.framesDelivered(), std::uint64_t(2 * imports));
    EXPECT_EQ(ether.liveQueues(), live0);
}

TEST(Integration, EightByEightMeshStillRoutes)
{
    MachineConfig cfg;
    cfg.meshWidth = 8;
    cfg.meshHeight = 8;
    cfg.nodeMemBytes = 1 * units::MiB;
    vmmc::System sys(cfg);
    vmmc::Endpoint &a = sys.createEndpoint(0);
    vmmc::Endpoint &b = sys.createEndpoint(63); // 14 hops
    test::runTask(sys.sim(), [](vmmc::Endpoint &a,
                                vmmc::Endpoint &b) -> sim::Task<> {
        VAddr rbuf = b.proc().alloc(4096);
        co_await b.exportBuffer(72, rbuf, 4096);
        auto r = co_await a.import(63, 72);
        EXPECT_EQ(r.status, vmmc::Status::Ok);
        VAddr src = a.proc().alloc(4096);
        a.proc().poke32(src, 0xFEED);
        co_await a.send(r.handle, 0, src, 4);
        std::uint32_t v = co_await b.proc().waitWord32Ne(rbuf, 0);
        EXPECT_EQ(v, 0xFEEDu);
    }(a, b));
}

} // namespace
} // namespace shrimp
