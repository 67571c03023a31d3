/**
 * @file
 * Protocol property tests and failure injection across the stack:
 * randomized message soups over every library, the csend-then-exit
 * progress guarantee, stream fuzzing with random read/write sizes, and
 * daemon freeze-policy behaviour under rogue traffic.
 */

#include <iterator>
#include <map>
#include <random>
#include <set>
#include <vector>

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

struct SoupMsg
{
    std::size_t size;
    long type;
};

/** Sender @p sender's seeded stream: a mix of tiny, mid-size,
 *  fragmented and zero-copy-sized messages of types 1-3. */
std::vector<SoupMsg>
soupStream(std::uint32_t seed, int sender, int n)
{
    std::mt19937 rng(seed + 1000u * std::uint32_t(sender));
    std::vector<SoupMsg> msgs(n);
    for (SoupMsg &m : msgs) {
        switch (rng() % 4) {
          case 0:
            m.size = 1 + rng() % 64;
            break;
          case 1:
            m.size = 200 + rng() % 1800;
            break;
          case 2:
            m.size = 2100 + rng() % 4000; // fragmented
            break;
          default:
            m.size = 5000 + rng() % 20000; // zero-copy
        }
        m.type = long(1 + rng() % 3);
    }
    return msgs;
}

std::uint32_t
soupPatternSeed(std::uint32_t seed, int sender, std::size_t i)
{
    return seed + 1000u * std::uint32_t(sender) + std::uint32_t(i);
}

/** Property: an NX message soup with random sizes/types arrives intact
 *  and in FIFO order per (sender, type). Every rank but 0 sends its own
 *  seeded stream to rank 0, which mixes typed and any-type receives. */
class NxSoup : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    /** Run the soup over @p ranks ranks on a @p mesh_w x @p mesh_h
     *  mesh (one rank per node). */
    void run(int ranks, int mesh_w, int mesh_h);
};

void
NxSoup::run(int ranks, int mesh_w, int mesh_h)
{
    const int kMsgs = 25;
    const std::uint32_t seed = GetParam();
    std::vector<std::vector<SoupMsg>> streams(ranks);
    for (int s = 1; s < ranks; ++s)
        streams[s] = soupStream(seed, s, kMsgs);

    MachineConfig cfg;
    cfg.meshWidth = mesh_w;
    cfg.meshHeight = mesh_h;
    vmmc::System sys(cfg);
    nx::NxSystem nxs(sys, ranks);
    test::runTask(sys.sim(), nxs.init());

    for (int s = 1; s < ranks; ++s) {
        sys.sim().spawn([](nx::NxSystem &nxs, int s,
                           std::vector<SoupMsg> msgs,
                           std::uint32_t seed) -> sim::Task<> {
            auto &p = nxs.proc(s);
            auto &proc = p.endpoint().proc();
            VAddr buf = proc.alloc(32 * 1024);
            for (std::size_t i = 0; i < msgs.size(); ++i) {
                auto data = test::pattern(msgs[i].size,
                                          soupPatternSeed(seed, s, i));
                proc.poke(buf, data.data(), data.size());
                co_await p.csend(msgs[i].type, buf, msgs[i].size, 0);
            }
        }(nxs, s, streams[s], seed));
    }

    sys.sim().spawn([](nx::NxSystem &nxs,
                       std::vector<std::vector<SoupMsg>> streams,
                       std::uint32_t seed) -> sim::Task<> {
        auto &p = nxs.proc(0);
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(32 * 1024);
        const int ranks = int(streams.size());
        // Per sender: message indices of each type, in send order, and
        // how many of them have been received.
        std::vector<std::map<long, std::vector<std::size_t>>> by_type(
            ranks);
        std::vector<std::map<long, std::size_t>> next(ranks);
        std::vector<std::set<std::size_t>> consumed(ranks);
        std::size_t total = 0;
        for (int s = 1; s < ranks; ++s) {
            for (std::size_t i = 0; i < streams[s].size(); ++i)
                by_type[s][streams[s][i].type].push_back(i);
            total += streams[s].size();
        }
        // Conservative packet-buffer footprint of a message left
        // unconsumed: worst case it arrives fragmented (unaligned large
        // messages fall back to the one-copy protocol).
        auto footprint = [](std::size_t size) {
            return (size + 2047) / 2048 + 1;
        };
        std::mt19937 rng(seed ^ 0x9E3779B9);
        for (std::size_t received = 0; received < total; ++received) {
            // A typed receive may ask for type t only if some sender's
            // next type-t message is sendable: the earlier messages it
            // skips pin packet buffers, and a receiver that defers them
            // indefinitely can exhaust that sender's credits. An
            // inherent NX property, not a bug. An any-type receive
            // always makes progress.
            std::set<long> avail;
            for (int s = 1; s < ranks; ++s) {
                for (auto &[ty, idxs] : by_type[s]) {
                    if (next[s][ty] >= idxs.size())
                        continue;
                    std::size_t skipped_cost = 0;
                    for (std::size_t j = 0; j < idxs[next[s][ty]]; ++j) {
                        if (!consumed[s].count(j))
                            skipped_cost += footprint(streams[s][j].size);
                    }
                    if (skipped_cost <= 4)
                        avail.insert(ty);
                }
            }
            long sel = nx::nxAnyType;
            if (!avail.empty() && rng() % 2 == 0)
                sel = *std::next(avail.begin(), rng() % avail.size());
            std::size_t n = co_await p.crecv(sel, buf, 32 * 1024);
            int s = p.infonode();
            long ty = p.infotype();
            if (sel != nx::nxAnyType) {
                EXPECT_EQ(ty, sel);
            }
            if (s < 1 || s >= ranks ||
                next[s][ty] >= by_type[s][ty].size()) {
                ADD_FAILURE() << "unexpected message from rank " << s
                              << " type " << ty;
                co_return;
            }
            // FIFO per (sender, type): it must be that pair's next one.
            std::size_t idx = by_type[s][ty][next[s][ty]++];
            consumed[s].insert(idx);
            EXPECT_EQ(n, streams[s][idx].size)
                << "sender " << s << " msg " << idx << " type " << ty;
            EXPECT_EQ(p.infocount(), streams[s][idx].size);
            auto expect = test::pattern(streams[s][idx].size,
                                        soupPatternSeed(seed, s, idx));
            std::vector<std::uint8_t> got(n);
            proc.peek(buf, got.data(), n);
            EXPECT_EQ(got, expect) << "sender " << s << " msg " << idx;
        }
    }(nxs, streams, seed));

    sys.sim().runAll();
}

TEST_P(NxSoup, RandomTrafficPreservesContentAndOrder)
{
    run(2, 2, 2);
}

/** Seven senders into one receiver: its scans walk seven connections,
 *  most of them idle at any moment. */
TEST_P(NxSoup, ManySendersPreserveContentAndOrder)
{
    run(8, 4, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NxSoup,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(NxProgress, LargeSendCompletesAfterSenderExits)
{
    // The completion-agent guarantee: csend of a zero-copy message may
    // return (and the sending task may end) before the receiver has
    // even called crecv; the transfer must still complete.
    vmmc::System sys;
    nx::NxSystem nxs(sys, 2);
    test::runTask(sys.sim(), nxs.init());

    auto data = test::pattern(20000, 5);
    sys.sim().spawn([](nx::NxSystem &nxs,
                       std::vector<std::uint8_t> data) -> sim::Task<> {
        auto &p = nxs.proc(0);
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(data.size());
        proc.poke(buf, data.data(), data.size());
        co_await p.csend(1, buf, data.size(), 1);
        // Scribble over the user buffer immediately: the library made a
        // safe copy, so this must not corrupt the message.
        std::vector<std::uint8_t> junk(data.size(), 0xEE);
        proc.poke(buf, junk.data(), junk.size());
        // Task ends here; only the library's agent can finish the send.
    }(nxs, data));
    sys.sim().spawn([](nx::NxSystem &nxs,
                       std::vector<std::uint8_t> expect) -> sim::Task<> {
        auto &p = nxs.proc(1);
        auto &proc = p.endpoint().proc();
        // Dawdle before receiving so the sender is long gone.
        co_await sim::Delay{proc.sim().queue(), 20 * units::ms};
        VAddr buf = proc.alloc(expect.size());
        std::size_t n = co_await p.crecv(1, buf, expect.size());
        EXPECT_EQ(n, expect.size());
        std::vector<std::uint8_t> got(n);
        proc.peek(buf, got.data(), n);
        EXPECT_EQ(got, expect);
    }(nxs, data));
    sys.sim().runAll();
}

/** Property: seeded shift exchanges deliver every payload from the
 *  right rank. 16 ranks on a 4x4 mesh; in each of 20 shifts every rank
 *  r sends S bytes to rank r+k and receives from rank r-k, with k and S
 *  in [256 B, 4 KB] drawn per shift, so every rank's scans walk 15
 *  connections while one or two of them carry traffic, and messages
 *  take both the small-message path and the scout path. */
TEST(NxShift, SeededShiftsDeliverEveryPayloadFromTheRightRank)
{
    constexpr int ranks = 16;
    constexpr int shifts = 20;
    constexpr std::size_t maxMsg = 4096;
    MachineConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    vmmc::System sys(cfg);
    nx::NxSystem nxs(sys, ranks);
    test::runTask(sys.sim(), nxs.init());
    std::vector<VAddr> sbuf(ranks), rbuf(ranks);
    for (int r = 0; r < ranks; ++r) {
        sbuf[r] = nxs.proc(r).endpoint().proc().alloc(maxMsg);
        rbuf[r] = nxs.proc(r).endpoint().proc().alloc(maxMsg);
    }

    std::mt19937 rng(30);
    int small = 0;
    for (int i = 0; i < shifts; ++i) {
        const int k = 1 + int(rng() % (ranks - 1));
        const std::size_t size = 4 * (64 + rng() % (maxMsg / 4 - 64 + 1));
        small += size <= nxs.options().largeThreshold;
        for (int r = 0; r < ranks; ++r) {
            auto data = test::pattern(size, std::uint32_t(i * ranks + r));
            nxs.proc(r).endpoint().proc().poke(sbuf[r], data.data(), size);
            sys.sim().spawn([](nx::NxProc &p, VAddr sbuf, VAddr rbuf,
                               std::size_t size, int dest, int src,
                               std::vector<std::uint8_t> expect)
                                -> sim::Task<> {
                co_await p.csend(1, sbuf, size, dest);
                std::size_t n = co_await p.crecv(1, rbuf, maxMsg);
                EXPECT_EQ(n, size);
                EXPECT_EQ(p.infonode(), src);
                std::vector<std::uint8_t> got(n);
                p.endpoint().proc().peek(rbuf, got.data(), n);
                EXPECT_EQ(got, expect) << "rank " << p.mynode();
            }(nxs.proc(r), sbuf[r], rbuf[r], size, (r + k) % ranks,
              (r - k + ranks) % ranks,
              test::pattern(size, std::uint32_t(
                                      i * ranks + (r - k + ranks) % ranks))));
        }
        sys.sim().runAll();
    }
    // The draw covers both protocols (a new seed must keep it so).
    EXPECT_GT(small, 0);
    EXPECT_LT(small, shifts);
}

/** Property: the socket byte stream is transparent to arbitrary
 *  read/write size interleavings. */
class SockFuzz : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SockFuzz, RandomChunksPreserveTheByteStream)
{
    std::mt19937 rng(GetParam());
    const std::size_t total = 40000 + rng() % 60000;
    auto data = test::pattern(total, GetParam() * 3 + 1);

    vmmc::System sys;
    auto &server = sys.createEndpoint(1);
    auto &client = sys.createEndpoint(0);

    sys.sim().spawn([](vmmc::Endpoint &ep, std::vector<std::uint8_t> data,
                       std::uint32_t seed) -> sim::Task<> {
        std::mt19937 rng(seed ^ 0xABCD);
        sock::SocketLib lib(ep);
        int fd = co_await lib.socket();
        EXPECT_EQ(co_await lib.connect(fd, 1, 4400), 0);
        VAddr buf = ep.proc().alloc(data.size());
        ep.proc().poke(buf, data.data(), data.size());
        std::size_t sent = 0;
        while (sent < data.size()) {
            std::size_t n = 1 + rng() % 9000;
            n = std::min(n, data.size() - sent);
            co_await lib.send(fd, buf + VAddr(sent), n);
            sent += n;
        }
        co_await lib.close(fd);
    }(client, data, GetParam()));

    sys.sim().spawn([](vmmc::Endpoint &ep,
                       std::vector<std::uint8_t> expect,
                       std::uint32_t seed) -> sim::Task<> {
        std::mt19937 rng(seed ^ 0x1234);
        sock::SocketLib lib(ep);
        int ls = co_await lib.socket();
        co_await lib.listen(ls, 4400);
        int fd = co_await lib.accept(ls);
        VAddr buf = ep.proc().alloc(16 * 1024);
        std::vector<std::uint8_t> got;
        for (;;) {
            std::size_t want = 1 + rng() % 12000;
            long n = co_await lib.recv(fd, buf,
                                       std::min<std::size_t>(want, 16384));
            EXPECT_GE(n, 0);
            if (n <= 0)
                break;
            std::vector<std::uint8_t> chunk(n);
            ep.proc().peek(buf, chunk.data(), chunk.size());
            got.insert(got.end(), chunk.begin(), chunk.end());
        }
        EXPECT_EQ(got, expect);
    }(server, data, GetParam()));

    sys.sim().runAll();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SockFuzz,
                         ::testing::Values(101u, 202u, 303u));

TEST(FreezeInjection, RogueTrafficDoesNotDisturbAService)
{
    // Failure injection: rogue packets to disabled pages freeze the
    // receive datapath; the daemon drops them; a VRPC service on the
    // same node keeps working.
    vmmc::System sys;
    auto &server_ep = sys.createEndpoint(1);
    auto &client_ep = sys.createEndpoint(0);
    rpc::VrpcServer server(server_ep, 4500);
    server.registerProc(
        1, 1, 1,
        [](rpc::XdrDecoder &dec)
            -> sim::Task<rpc::VrpcServer::ServiceResult> {
            std::int32_t x = co_await dec.getI32();
            rpc::VrpcServer::ServiceResult r;
            r.results = [x](rpc::XdrEncoder &enc) -> sim::Task<> {
                co_await enc.putI32(x + 1);
            };
            co_return r;
        });
    server.start();

    // Rogue injector: packets straight into the mesh toward pages of
    // node 1 that were never exported.
    int rogues = 12;
    for (int i = 0; i < rogues; ++i) {
        sys.sim().queue().scheduleIn(Tick(i) * 500 * units::us, [&sys, i] {
            net::Packet p;
            p.src = 2;
            p.dst = 1;
            p.destAddr = PAddr(1000 * 4096 + i * 64);
            p.payload.assign(32, 0xBD);
            sys.machine().node(1).nic().incoming().noteInflight(
                p.destAddr);
            sys.machine().mesh().inject(std::move(p));
        });
    }

    bool done = false;
    sys.sim().spawn([](vmmc::Endpoint &ep, bool &done) -> sim::Task<> {
        rpc::VrpcClient client(ep);
        bool up = co_await client.connect(1, 4500, 1, 1);
        EXPECT_TRUE(up);
        for (std::int32_t i = 0; i < 20; ++i) {
            std::int32_t r = 0;
            auto st = co_await client.call(
                1,
                [i](rpc::XdrEncoder &e) -> sim::Task<> {
                    co_await e.putI32(i);
                },
                [&r](rpc::XdrDecoder &d) -> sim::Task<> {
                    r = co_await d.getI32();
                });
            EXPECT_EQ(st, rpc::AcceptStat::Success);
            EXPECT_EQ(r, i + 1);
            co_await ep.proc().compute(300 * units::us);
        }
        done = true;
    }(client_ep, done));
    sys.sim().runAll();
    EXPECT_TRUE(done);
    EXPECT_EQ(sys.machine().node(1).nic().incoming().packetsDropped(),
              std::uint64_t(rogues));
    EXPECT_EQ(sys.daemon(1).freezesHandled(), std::uint64_t(rogues));
}

TEST(FreezeInjection, CustomPolicyCanRepairAndRetry)
{
    vmmc::System sys;
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    int repairs = 0;
    sys.daemon(1).setFreezePolicy(
        [&](const net::Packet &, PageNum page) {
            // "Repair": enable the page, as a daemon mapping in a lazy
            // communication region would.
            sys.machine().node(1).nic().ipt().setEnabled(page, true);
            ++repairs;
            return nic::FreezeAction::Retry;
        });

    // Rogue write to a never-exported page of node 1.
    net::Packet p;
    p.src = 0;
    p.dst = 1;
    p.destAddr = PAddr(500 * 4096);
    p.payload.assign(8, 0x5E);
    sys.machine().node(1).nic().incoming().noteInflight(p.destAddr);
    sys.machine().mesh().inject(std::move(p));

    test::runTask(sys.sim(), [](vmmc::Endpoint &a) -> sim::Task<> {
        co_await a.proc().compute(200 * units::us);
    }(a));
    EXPECT_EQ(repairs, 1);
    EXPECT_EQ(
        sys.machine().node(1).memory().read32(PAddr(500 * 4096)),
        0x5E5E5E5Eu);
    (void)b;
}

/** Property: SRPC marshals random parameter layouts correctly. */
class SrpcFuzz : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SrpcFuzz, RandomSignaturesRoundTrip)
{
    std::mt19937 rng(GetParam());
    srpc::Interface iface;
    // One procedure with 2-5 parameters of random direction and size.
    int nparams = 2 + int(rng() % 4);
    std::vector<srpc::ParamDesc> descs;
    for (int i = 0; i < nparams; ++i) {
        srpc::Dir dir = std::array<srpc::Dir, 3>{
            srpc::Dir::In, srpc::Dir::Out,
            srpc::Dir::InOut}[rng() % 3];
        std::size_t size = 1 + rng() % 300;
        descs.push_back({dir, size});
    }
    std::uint32_t proc_id = iface.defineProc("fuzz", descs);

    vmmc::System sys;
    auto &server_ep = sys.createEndpoint(1);
    auto &client_ep = sys.createEndpoint(0);
    srpc::SrpcServer server(server_ep, iface, 4600);
    // Echo server: Out params get the byte-inverted In param contents
    // (cyclically); InOut params get incremented bytes.
    server.registerProc(proc_id, [&iface, proc_id](
                            srpc::ServerCall &c) -> sim::Task<> {
        const srpc::Signature &sig = iface.signature(proc_id);
        for (std::size_t i = 0; i < sig.params.size(); ++i) {
            if (sig.params[i].dir == srpc::Dir::InOut) {
                std::vector<std::uint8_t> v(sig.params[i].size);
                co_await c.getArg(i, v.data());
                for (auto &x : v)
                    ++x;
                co_await c.putArg(i, v.data());
            } else if (sig.params[i].dir == srpc::Dir::Out) {
                std::vector<std::uint8_t> v(sig.params[i].size,
                                            std::uint8_t(0xA0 + i));
                co_await c.putOut(i, v.data());
            }
        }
    });
    server.start();

    sys.sim().spawn([](vmmc::Endpoint &ep, const srpc::Interface &iface,
                       std::uint32_t proc_id,
                       std::uint32_t seed) -> sim::Task<> {
        const srpc::Signature &sig = iface.signature(proc_id);
        srpc::SrpcClient client(ep, iface);
        bool up = co_await client.bind(1, 4600);
        EXPECT_TRUE(up);

        std::vector<std::vector<std::uint8_t>> host(sig.params.size());
        std::vector<srpc::Param> ps;
        for (std::size_t i = 0; i < sig.params.size(); ++i) {
            host[i] = test::pattern(sig.params[i].size,
                                    seed + std::uint32_t(i));
            switch (sig.params[i].dir) {
              case srpc::Dir::In:
                ps.push_back(srpc::in(host[i].data(), host[i].size()));
                break;
              case srpc::Dir::Out:
                ps.push_back(srpc::out(host[i].data(), host[i].size()));
                break;
              case srpc::Dir::InOut:
                ps.push_back(
                    srpc::inout(host[i].data(), host[i].size()));
                break;
            }
        }
        std::vector<std::vector<std::uint8_t>> orig = host;
        co_await client.call(proc_id, ps);
        for (std::size_t i = 0; i < sig.params.size(); ++i) {
            switch (sig.params[i].dir) {
              case srpc::Dir::In:
                EXPECT_EQ(host[i], orig[i]) << "IN param " << i;
                break;
              case srpc::Dir::Out:
                for (auto x : host[i])
                    EXPECT_EQ(x, std::uint8_t(0xA0 + i));
                break;
              case srpc::Dir::InOut:
                for (std::size_t k = 0; k < host[i].size(); ++k)
                    EXPECT_EQ(host[i][k],
                              std::uint8_t(orig[i][k] + 1));
                break;
            }
        }
    }(client_ep, iface, proc_id, GetParam()));
    sys.sim().runAll();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SrpcFuzz,
                         ::testing::Values(7u, 13u, 21u, 34u, 55u));

} // namespace
} // namespace shrimp
