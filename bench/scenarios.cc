#include "scenarios.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "nx/nx.hh"
#include "rpc/server.hh"
#include "sock/socket.hh"
#include "srpc/srpc.hh"
#include "vmmc/vmmc.hh"

namespace shrimp::bench
{

namespace
{

/** The variant a scenario runs for curve @p curve. */
template <typename T, std::size_t N>
T
byName(const char *scenario, const std::string &curve,
       const std::pair<const char *, T> (&table)[N])
{
    for (const auto &[name, value] : table) {
        if (curve == name)
            return value;
    }
    fatal(logging::format("%s has no curve '%s'", scenario,
                          curve.c_str()));
}

void
note(const Params &p, const char *mark, Tick now)
{
    if (p.mark)
        p.mark(mark, now);
}

/** Run @p sys to completion and close the books of @p r. */
void
drain(vmmc::System &sys, Run &r)
{
    r.events += sys.sim().runAll();
    r.end = sys.sim().now();
}

enum class Raw
{
    Au1copy,
    Au2copy,
    Du0copy,
    Du1copy,
};

constexpr std::pair<const char *, Raw> kRawCurves[] = {
    {"AU-1copy", Raw::Au1copy},
    {"AU-2copy", Raw::Au2copy},
    {"DU-0copy", Raw::Du0copy},
    {"DU-1copy", Raw::Du1copy},
};

struct Side
{
    vmmc::Endpoint *ep;
    VAddr user = 0;   //!< user message buffer
    VAddr recv = 0;   //!< exported receive region
    VAddr au = 0;     //!< AU-bound send area (AU variants)
    int handle = -1;  //!< import of the peer's receive region
};

sim::Task<>
exportSide(Side &s, std::uint32_t key, std::size_t bufsz)
{
    node::Process &proc = s.ep->proc();
    s.user = proc.alloc(bufsz);
    s.recv = proc.alloc(bufsz, CacheMode::WriteThrough);
    vmmc::Status st = co_await s.ep->exportBuffer(key, s.recv, bufsz);
    SHRIMP_ASSERT(st == vmmc::Status::Ok, "export");
}

sim::Task<>
importSide(Side &s, Side &peer, std::uint32_t peer_key, std::size_t bufsz,
           Raw v)
{
    node::Process &proc = s.ep->proc();
    auto r = co_await s.ep->import(peer.ep->nodeId(), peer_key);
    SHRIMP_ASSERT(r.status == vmmc::Status::Ok, "import");
    s.handle = r.handle;
    if (v == Raw::Au1copy || v == Raw::Au2copy) {
        s.au = proc.alloc(bufsz);
        vmmc::Status st = co_await s.ep->bindAu(s.au, bufsz, s.handle, 0);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "bindAu");
    }
}

/** One direction of the ping-pong: send the message tagged @p tag. */
sim::Task<>
sendMsg(Side &s, std::size_t size, std::uint32_t tag, Raw v)
{
    node::Process &proc = s.ep->proc();
    proc.poke32(VAddr(s.user + size - 4), tag);
    switch (v) {
      case Raw::Au1copy:
      case Raw::Au2copy:
        // The copy into the bound buffer is the send.
        co_await proc.copy(s.au, s.user, size);
        break;
      case Raw::Du0copy:
      case Raw::Du1copy:
        co_await s.ep->send(s.handle, 0, s.user, size);
        break;
    }
}

/** Wait for the message tagged @p tag and consume it per the variant. */
sim::Task<>
recvMsg(Side &s, std::size_t size, std::uint32_t tag, Raw v)
{
    node::Process &proc = s.ep->proc();
    co_await proc.waitWord32Eq(VAddr(s.recv + size - 4), tag);
    if (v == Raw::Au2copy || v == Raw::Du1copy)
        co_await proc.copy(s.user, s.recv, size);
}

struct NxSpec
{
    nx::SendMode mode;
    bool inPlaceRecv;
};

constexpr std::pair<const char *, NxSpec> kNxCurves[] = {
    {"AU-1copy", {nx::SendMode::AuMarshal, true}},
    {"AU-2copy", {nx::SendMode::AuMarshal, false}},
    {"DU-0copy", {nx::SendMode::ZeroCopy, false}},
    {"DU-1copy", {nx::SendMode::DuOneCopy, false}},
    {"DU-2copy", {nx::SendMode::DuTwoCopy, false}},
    {"Auto", {nx::SendMode::Auto, false}},
};

constexpr std::pair<const char *, sock::StreamProto> kVrpcCurves[] = {
    {"AU-1copy", sock::StreamProto::AuTwoCopy},
    {"DU-1copy", sock::StreamProto::DuTwoCopy},
};

constexpr std::pair<const char *, sock::StreamProto> kSockCurves[] = {
    {"AU-2copy", sock::StreamProto::AuTwoCopy},
    {"DU-1copy", sock::StreamProto::DuOneCopy},
    {"DU-2copy", sock::StreamProto::DuTwoCopy},
};

constexpr std::uint32_t kVrpcProg = 0x30000001;
constexpr std::uint32_t kVrpcVers = 1;

} // namespace

Run
rawPingPong(const std::string &curve, const Params &p)
{
    Raw v = byName("raw VMMC ping-pong", curve, kRawCurves);
    vmmc::System sys(p.cfg);
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    Side sa{&a}, sb{&b};
    Run r;

    sys.sim().spawn([](vmmc::System &sys, Side &sa, Side &sb, Raw v,
                       const Params &p, Run &r) -> sim::Task<> {
        std::size_t bufsz = (p.size + 4095) / 4096 * 4096 + 4096;
        co_await exportSide(sa, 43, bufsz);
        co_await exportSide(sb, 42, bufsz);
        co_await importSide(sa, sb, 42, bufsz, v);
        co_await importSide(sb, sa, 43, bufsz, v);
        for (int i = 0; i < p.warmup + p.iters; ++i) {
            if (i == p.warmup)
                r.t0 = sys.sim().now();
            std::uint32_t tag = std::uint32_t(i + 1);
            co_await sendMsg(sa, p.size, tag, v);
            co_await recvMsg(sb, p.size, tag, v);
            note(p, "done.a2b", sys.sim().now());
            co_await sendMsg(sb, p.size, tag, v);
            co_await recvMsg(sa, p.size, tag, v);
            note(p, "done.b2a", sys.sim().now());
        }
        r.t1 = sys.sim().now();
    }(sys, sa, sb, v, p, r));
    drain(sys, r);
    return r;
}

Run
nxPingPong(const std::string &curve, const Params &p)
{
    NxSpec spec = byName("NX ping-pong", curve, kNxCurves);
    vmmc::System sys(p.cfg);
    nx::NxSystem nxs(sys, 2);
    sys.sim().spawn(nxs.init());
    Run r;
    r.events = sys.sim().runAll();

    auto peer = [](nx::NxSystem &nxs, int rank, NxSpec spec,
                   const Params &p, Run &r) -> sim::Task<> {
        auto &nxp = nxs.proc(rank);
        nxp.setSendMode(spec.mode);
        auto &proc = nxp.endpoint().proc();
        std::size_t bufsz = std::max<std::size_t>(p.size, 4) + 64;
        VAddr buf = proc.alloc(bufsz);
        for (int i = 0; i < p.warmup + p.iters; ++i) {
            if (rank == 0 && i == p.warmup)
                r.t0 = proc.sim().now();
            if (rank == 0) {
                co_await nxp.csend(1, buf, p.size, 1);
                if (spec.inPlaceRecv)
                    co_await nxp.crecvInPlace(2);
                else
                    co_await nxp.crecv(2, buf, bufsz);
                note(p, "done.b2a", proc.sim().now());
            } else {
                if (spec.inPlaceRecv)
                    co_await nxp.crecvInPlace(1);
                else
                    co_await nxp.crecv(1, buf, bufsz);
                note(p, "done.a2b", proc.sim().now());
                co_await nxp.csend(2, buf, p.size, 0);
            }
        }
        if (rank == 0)
            r.t1 = proc.sim().now();
    };
    sys.sim().spawn(peer(nxs, 0, spec, p, r));
    sys.sim().spawn(peer(nxs, 1, spec, p, r));
    drain(sys, r);
    return r;
}

Run
vrpcNullCall(const std::string &curve, const Params &p)
{
    rpc::VrpcOptions opt;
    opt.proto = byName("VRPC null call", curve, kVrpcCurves);

    vmmc::System sys(p.cfg);
    auto &server_ep = sys.createEndpoint(1);
    auto &client_ep = sys.createEndpoint(0);
    rpc::VrpcServer server(server_ep, 5000, opt);
    server.registerProc(
        kVrpcProg, kVrpcVers, 1,
        [&sys, &p](rpc::XdrDecoder &dec)
            -> sim::Task<rpc::VrpcServer::ServiceResult> {
            note(p, "srv.handle", sys.sim().now());
            auto data = co_await dec.getBytes(1 << 20);
            rpc::VrpcServer::ServiceResult res;
            res.results = [data](rpc::XdrEncoder &enc) -> sim::Task<> {
                co_await enc.putBytes(data.data(), data.size());
            };
            co_return res;
        });
    server.start();
    Run r;

    sys.sim().spawn([](vmmc::System &sys, vmmc::Endpoint &ep,
                       rpc::VrpcOptions opt, const Params &p,
                       Run &r) -> sim::Task<> {
        rpc::VrpcClient client(ep, opt);
        bool up = co_await client.connect(1, 5000, kVrpcProg, kVrpcVers);
        SHRIMP_ASSERT(up, "connect");
        std::vector<std::uint8_t> arg(p.size, 0x5A);
        for (int i = 0; i < p.warmup + p.iters; ++i) {
            if (i == p.warmup)
                r.t0 = sys.sim().now();
            auto st = co_await client.call(
                1,
                [&arg](rpc::XdrEncoder &e) -> sim::Task<> {
                    co_await e.putBytes(arg.data(), arg.size());
                },
                [](rpc::XdrDecoder &d) -> sim::Task<> {
                    co_await d.getBytes(1 << 20);
                });
            SHRIMP_ASSERT(st == rpc::AcceptStat::Success, "call");
            note(p, "call.done", sys.sim().now());
        }
        r.t1 = sys.sim().now();
    }(sys, client_ep, opt, p, r));
    drain(sys, r);
    return r;
}

Run
sockPingPong(const std::string &curve, const Params &p)
{
    sock::SockOptions opt;
    opt.proto = byName("socket ping-pong", curve, kSockCurves);
    // Keep the ring comfortably larger than one message.
    opt.ringBytes =
        std::max<std::size_t>(8192, (2 * p.size + 4095) / 4096 * 4096);

    vmmc::System sys(p.cfg);
    auto &server_ep = sys.createEndpoint(1);
    auto &client_ep = sys.createEndpoint(0);
    Run r;

    sys.sim().spawn([](vmmc::Endpoint &ep, sock::SockOptions opt,
                       const Params &p) -> sim::Task<> {
        sock::SocketLib lib(ep, opt);
        int ls = co_await lib.socket();
        co_await lib.listen(ls, 4000);
        int fd = co_await lib.accept(ls);
        VAddr buf = ep.proc().alloc(p.size + 64);
        for (int i = 0; i < p.warmup + p.iters; ++i) {
            co_await lib.recvAll(fd, buf, p.size);
            note(p, "done.a2b", ep.proc().sim().now());
            co_await lib.send(fd, buf, p.size);
        }
    }(server_ep, opt, p));
    sys.sim().spawn([](vmmc::Endpoint &ep, sock::SockOptions opt,
                       const Params &p, Run &r) -> sim::Task<> {
        sock::SocketLib lib(ep, opt);
        int fd = co_await lib.socket();
        int rc = co_await lib.connect(fd, 1, 4000);
        SHRIMP_ASSERT(rc == 0, "connect");
        VAddr buf = ep.proc().alloc(p.size + 64);
        for (int i = 0; i < p.warmup + p.iters; ++i) {
            if (i == p.warmup)
                r.t0 = ep.proc().sim().now();
            co_await lib.send(fd, buf, p.size);
            co_await lib.recvAll(fd, buf, p.size);
            note(p, "done.b2a", ep.proc().sim().now());
        }
        r.t1 = ep.proc().sim().now();
    }(client_ep, opt, p, r));
    drain(sys, r);
    return r;
}

Run
srpcNullCall(const Params &p)
{
    vmmc::System sys(p.cfg);
    auto &server_ep = sys.createEndpoint(1);
    auto &client_ep = sys.createEndpoint(0);

    srpc::Interface iface;
    std::size_t param = std::max<std::size_t>(p.size, 4);
    std::uint32_t proc_id =
        iface.defineProc("nullinout", {{srpc::Dir::InOut, param}});
    srpc::SrpcServer server(server_ep, iface, 6000);
    // Null procedure: the INOUT values are returned untouched; whatever
    // the procedure writes propagates via automatic update.
    server.registerProc(proc_id, [](srpc::ServerCall &) -> sim::Task<> {
        co_return;
    });
    server.start();
    Run r;

    sys.sim().spawn([](vmmc::Endpoint &ep, const srpc::Interface &iface,
                       std::uint32_t proc_id, std::size_t param,
                       const Params &p, Run &r) -> sim::Task<> {
        srpc::SrpcClient client(ep, iface);
        bool up = co_await client.bind(1, 6000);
        SHRIMP_ASSERT(up, "bind");
        std::vector<std::uint8_t> arg(param, 1);
        for (int i = 0; i < p.warmup + p.iters; ++i) {
            if (i == p.warmup)
                r.t0 = ep.proc().sim().now();
            std::vector<srpc::Param> ps{srpc::inout(arg.data(), param)};
            co_await client.call(proc_id, ps);
            note(p, "call.done", ep.proc().sim().now());
        }
        r.t1 = ep.proc().sim().now();
    }(client_ep, iface, proc_id, param, p, r));
    drain(sys, r);
    return r;
}

Run
ttcpPump(const Params &p)
{
    const std::size_t total = std::size_t(p.warmup + p.iters) * p.size;
    vmmc::System sys(p.cfg);
    auto &sink_ep = sys.createEndpoint(1);
    auto &src_ep = sys.createEndpoint(0);
    Run r;

    sys.sim().spawn([](vmmc::Endpoint &ep, std::size_t record,
                       std::size_t total) -> sim::Task<> {
        sock::SocketLib lib(ep);
        int ls = co_await lib.socket();
        co_await lib.listen(ls, 4000);
        int fd = co_await lib.accept(ls);
        VAddr buf = ep.proc().alloc(record + 64);
        std::size_t got = 0;
        while (got < total) {
            long n = co_await lib.recv(fd, buf, record);
            if (n <= 0)
                break;
            got += std::size_t(n);
        }
    }(sink_ep, p.size, total));
    sys.sim().spawn([](vmmc::Endpoint &ep, const Params &p,
                       Run &r) -> sim::Task<> {
        sock::SocketLib lib(ep);
        int fd = co_await lib.socket();
        int rc = co_await lib.connect(fd, 1, 4000);
        SHRIMP_ASSERT(rc == 0, "connect");
        VAddr buf = ep.proc().alloc(p.size + 64);
        for (int i = 0; i < p.warmup + p.iters; ++i) {
            if (i == p.warmup)
                r.t0 = ep.proc().sim().now();
            co_await lib.send(fd, buf, p.size);
        }
        r.t1 = ep.proc().sim().now();
        co_await lib.close(fd);
    }(src_ep, p, r));
    drain(sys, r);
    return r;
}

Run
nxAllPairs(const Params &p)
{
    const int ranks = p.cfg.meshWidth * p.cfg.meshHeight;
    vmmc::System sys(p.cfg);
    nx::NxSystem nxs(sys, ranks);
    sys.sim().spawn(nxs.init());
    Run r;
    r.events = sys.sim().runAll();

    for (int rank = 0; rank < ranks; ++rank) {
        sys.sim().spawn([](nx::NxSystem &nxs, int rank, int n,
                           const Params &p, Run &r) -> sim::Task<> {
            auto &nxp = nxs.proc(rank);
            auto &proc = nxp.endpoint().proc();
            std::size_t bufsz = (p.size + 4095) / 4096 * 4096;
            VAddr buf = proc.alloc(bufsz);
            for (int i = 0; i < p.warmup + p.iters; ++i) {
                if (rank == 0 && i == p.warmup)
                    r.t0 = proc.sim().now();
                for (int k = 1; k < n; ++k) {
                    int to = (rank + k) % n;
                    co_await nxp.csend(long(100 + rank), buf, p.size, to);
                }
                for (int k = 1; k < n; ++k) {
                    int from = (rank - k + n) % n;
                    co_await nxp.crecv(long(100 + from), buf, bufsz);
                }
                co_await nxp.gsync();
            }
        }(nxs, rank, ranks, p, r));
    }
    drain(sys, r);
    r.t1 = r.end;
    return r;
}

} // namespace shrimp::bench
