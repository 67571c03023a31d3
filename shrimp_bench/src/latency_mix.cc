/**
 * @file
 * latency_mix: the traffic the paper's figures are made of. Each op is
 * one small ping-pong or call (4 B - 1 KB, log-uniform over powers of
 * two, so skewed small) on one of seven stacks, each in its own 2x2
 * System so the idle pollers of one stack never charge simulated CPU
 * time to another: raw VMMC AU-1copy and DU-0copy (Figure 3), NX AU and
 * NX DU (Figure 4), sockets (Figure 7), VRPC (Figure 5) and SHRIMP RPC
 * (Figure 8). Every block of 32 ops holds one op at each anchor point,
 * at seeded positions.
 */

#include <array>
#include <cmath>
#include <cstring>

#include "nx/nx.hh"
#include "rpc/server.hh"
#include "sock/socket.hh"
#include "srpc/srpc.hh"
#include "workload.hh"

namespace shrimp::bench
{
namespace
{

enum Stack
{
    VmmcAu,
    VmmcDu,
    NxAu,
    NxDu,
    Sock,
    Vrpc,
    Srpc,
    NumStacks,
};

constexpr std::size_t numSizes = 9; // 4 B .. 1 KB
constexpr std::size_t maxMsg = 4u << (numSizes - 1);
constexpr std::size_t bufBytes = 8192;
constexpr std::uint64_t blockOps = 32;
constexpr std::uint32_t rpcProg = 0x20000042;

struct Op
{
    Stack stack;
    std::size_t size; //!< payload bytes; 0 = null call (RPC stacks)
    bool anchor;
};

/** The anchor ops, one per block: (stack, size). */
constexpr std::array<std::pair<Stack, std::size_t>, 6> anchorOps{{
    {VmmcAu, 4}, {VmmcDu, 4}, {NxAu, 4}, {Sock, 4}, {Vrpc, 0}, {Srpc, 0}}};

/** Raw VMMC ping-pong state: side 0 on node 0, side 1 on node 1. */
struct RawPair
{
    vmmc::Endpoint *ep[2] = {};
    VAddr user[2] = {}, recv[2] = {}, au[2] = {};
    int handle[2] = {-1, -1};
};

sim::Task<>
rawSetup(RawPair &p, bool au)
{
    for (int s = 0; s < 2; ++s) {
        node::Process &proc = p.ep[s]->proc();
        p.user[s] = proc.alloc(bufBytes);
        p.recv[s] = proc.alloc(bufBytes, CacheMode::WriteThrough);
        SpanMark m = spanBegin(proc.sim());
        vmmc::Status st =
            co_await p.ep[s]->exportBuffer(100 + s, p.recv[s], bufBytes);
        spanEnd(Call::VmmcExport, m, proc.sim());
        if (st != vmmc::Status::Ok)
            fatal("latency_mix: export failed");
    }
    for (int s = 0; s < 2; ++s) {
        node::Process &proc = p.ep[s]->proc();
        SpanMark m = spanBegin(proc.sim());
        auto r = co_await p.ep[s]->import(p.ep[1 - s]->nodeId(), 101 - s);
        spanEnd(Call::VmmcImport, m, proc.sim());
        if (r.status != vmmc::Status::Ok)
            fatal("latency_mix: import failed");
        p.handle[s] = r.handle;
        if (au) {
            p.au[s] = proc.alloc(bufBytes);
            vmmc::Status st =
                co_await p.ep[s]->bindAu(p.au[s], bufBytes, r.handle, 0);
            if (st != vmmc::Status::Ok)
                fatal("latency_mix: bindAu failed");
        }
    }
}

/** One side's send: the AU copy into the bound buffer, or a DU send. */
sim::Task<vmmc::Status>
rawSend(RawPair &p, int s, std::size_t size, bool au)
{
    node::Process &proc = p.ep[s]->proc();
    SpanMark m = spanBegin(proc.sim());
    vmmc::Status st = vmmc::Status::Ok;
    if (au) {
        co_await proc.copy(p.au[s], p.user[s], size);
        spanEnd(Call::VmmcAuCopy, m, proc.sim());
    } else {
        st = co_await p.ep[s]->send(p.handle[s], 0, p.user[s], size);
        spanEnd(Call::VmmcSend, m, proc.sim());
    }
    co_return st;
}

sim::Task<>
rawWait(RawPair &p, int s, std::size_t size, std::uint32_t tag)
{
    node::Process &proc = p.ep[s]->proc();
    SpanMark m = spanBegin(proc.sim());
    co_await proc.waitWord32Eq(VAddr(p.recv[s] + size - 4), tag);
    spanEnd(Call::VmmcWait, m, proc.sim());
}

/** Figure 3's ping-pong, one round trip. */
sim::Task<>
rawPingPong(RawPair &p, std::size_t size, bool au,
            std::array<std::uint32_t, 2> tags, Tick &rt, bool &ok)
{
    sim::Simulator &sim = p.ep[0]->proc().sim();
    Tick t0 = sim.now();
    vmmc::Status a = co_await rawSend(p, 0, size, au);
    co_await rawWait(p, 1, size, tags[0]);
    vmmc::Status b = co_await rawSend(p, 1, size, au);
    co_await rawWait(p, 0, size, tags[1]);
    rt = sim.now() - t0;
    ok = a == vmmc::Status::Ok && b == vmmc::Status::Ok;
}

struct NxPair
{
    std::unique_ptr<nx::NxSystem> nx;
    VAddr sbuf[2] = {}, rbuf[2] = {};
    std::size_t got[2] = {};
    Tick rt = 0;
};

sim::Task<>
nxPeer(NxPair &p, int rank, std::size_t size)
{
    nx::NxProc &me = p.nx->proc(rank);
    sim::Simulator &sim = me.endpoint().proc().sim();
    Tick t0 = sim.now();
    auto send = [&]() -> sim::Task<> {
        SpanMark m = spanBegin(sim);
        co_await me.csend(1 + rank, p.sbuf[rank], size, 1 - rank);
        spanEnd(Call::NxCsend, m, sim);
    };
    auto recv = [&]() -> sim::Task<> {
        SpanMark m = spanBegin(sim);
        p.got[rank] = co_await me.crecv(2 - rank, p.rbuf[rank], maxMsg);
        spanEnd(Call::NxCrecv, m, sim);
    };
    if (rank == 0) {
        co_await send();
        co_await recv();
        p.rt = sim.now() - t0;
    } else {
        co_await recv();
        co_await send();
    }
}

struct SockPair
{
    std::unique_ptr<sock::SocketLib> lib[2];
    int fd[2] = {-1, -1};
    VAddr sbuf[2] = {}, rbuf[2] = {};
    long sent[2] = {}, got[2] = {};
    Tick rt = 0;
};

sim::Task<>
sockAccept(SockPair &p)
{
    int ls = co_await p.lib[1]->socket();
    co_await p.lib[1]->listen(ls, 4000);
    p.fd[1] = co_await p.lib[1]->accept(ls);
}

sim::Task<>
sockConnect(SockPair &p)
{
    sim::Simulator &sim = p.lib[0]->endpoint().proc().sim();
    int fd = co_await p.lib[0]->socket();
    SpanMark m = spanBegin(sim);
    int rc = co_await p.lib[0]->connect(fd, 1, 4000);
    spanEnd(Call::SockConnect, m, sim);
    if (rc != 0)
        fatal("latency_mix: socket connect failed");
    p.fd[0] = fd;
}

sim::Task<>
sockPeer(SockPair &p, int s, std::size_t size)
{
    sock::SocketLib &lib = *p.lib[s];
    sim::Simulator &sim = lib.endpoint().proc().sim();
    Tick t0 = sim.now();
    auto send = [&]() -> sim::Task<> {
        SpanMark m = spanBegin(sim);
        p.sent[s] = co_await lib.send(p.fd[s], p.sbuf[s], size);
        spanEnd(Call::SockSend, m, sim);
    };
    auto recv = [&]() -> sim::Task<> {
        SpanMark m = spanBegin(sim);
        p.got[s] = co_await lib.recvAll(p.fd[s], p.rbuf[s], size);
        spanEnd(Call::SockRecv, m, sim);
    };
    if (s == 0) {
        co_await send();
        co_await recv();
        p.rt = sim.now() - t0;
    } else {
        co_await recv();
        co_await send();
    }
}

/** The RPC procedures transform their argument so the caller can tell
 *  a served call from an echo of its own buffer. */
void
xform(std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        p[i] ^= 0x5a;
}

sim::Task<rpc::VrpcServer::ServiceResult>
vrpcNull(rpc::XdrDecoder &)
{
    co_return rpc::VrpcServer::ServiceResult{};
}

sim::Task<rpc::VrpcServer::ServiceResult>
vrpcXform(rpc::XdrDecoder &dec)
{
    auto data = co_await dec.getBytes(maxMsg);
    xform(data.data(), data.size());
    rpc::VrpcServer::ServiceResult r;
    r.results = [data](rpc::XdrEncoder &enc) -> sim::Task<> {
        co_await enc.putBytes(data.data(), data.size());
    };
    co_return r;
}

struct VrpcPair
{
    std::unique_ptr<rpc::VrpcServer> server;
    std::unique_ptr<rpc::VrpcClient> client;
    std::vector<std::uint8_t> result;
    rpc::AcceptStat stat = rpc::AcceptStat::Success;
    Tick rt = 0;
};

sim::Task<>
vrpcConnect(VrpcPair &p)
{
    bool up = co_await p.client->connect(1, 5000, rpcProg, 1);
    if (!up)
        fatal("latency_mix: VRPC connect failed");
}

sim::Task<>
vrpcCall(VrpcPair &p, sim::Simulator &sim, const std::uint8_t *arg,
         std::size_t size)
{
    Tick t0 = sim.now();
    SpanMark m = spanBegin(sim);
    if (size == 0) {
        p.stat = co_await p.client->call(0, nullptr, nullptr);
    } else {
        p.stat = co_await p.client->call(
            1,
            [arg, size](rpc::XdrEncoder &e) -> sim::Task<> {
                co_await e.putBytes(arg, size);
            },
            [&p](rpc::XdrDecoder &d) -> sim::Task<> {
                p.result = co_await d.getBytes(maxMsg);
            });
    }
    spanEnd(Call::RpcCall, m, sim);
    p.rt = sim.now() - t0;
}

/** SHRIMP RPC procedure ids: 0 is the null call, 1 + k takes one
 *  INOUT parameter of 4 << k bytes. */
sim::Task<>
srpcNull(srpc::ServerCall &)
{
    co_return;
}

sim::Task<>
srpcXform(srpc::ServerCall &call)
{
    std::size_t size = std::size_t(4) << (call.proc() - 1);
    std::vector<std::uint8_t> tmp(size);
    co_await call.getArg(0, tmp.data());
    xform(tmp.data(), size);
    co_await call.putArg(0, tmp.data());
}

struct SrpcPair
{
    srpc::Interface iface;
    std::unique_ptr<srpc::SrpcServer> server;
    std::unique_ptr<srpc::SrpcClient> client;
    std::vector<std::uint8_t> inout = std::vector<std::uint8_t>(maxMsg);
    Tick rt = 0;
};

sim::Task<>
srpcBind(SrpcPair &p)
{
    bool up = co_await p.client->bind(1, 6000);
    if (!up)
        fatal("latency_mix: SRPC bind failed");
}

sim::Task<>
srpcCall(SrpcPair &p, sim::Simulator &sim, std::size_t size)
{
    Tick t0 = sim.now();
    SpanMark m = spanBegin(sim);
    std::vector<srpc::Param> params;
    std::uint32_t proc = 0;
    if (size != 0) {
        proc = 1 + std::uint32_t(std::log2(size / 4));
        params.push_back(srpc::inout(p.inout.data(), size));
    }
    co_await p.client->call(proc, std::move(params));
    spanEnd(Call::SrpcCall, m, sim);
    p.rt = sim.now() - t0;
}

class LatencyMix : public Workload
{
  public:
    explicit LatencyMix(std::uint64_t seed)
        : Workload(seed), pool_(seed, 64 * 1024), expect_(maxMsg)
    {
        for (auto &m : msg_)
            m.resize(maxMsg);
    }

    std::uint64_t prefixOps() const override { return 4 * blockOps; }

    void
    setup() override
    {
        for (int s = 0; s < NumStacks; ++s)
            sys_[s] = &addSystem();

        for (Stack st : {VmmcAu, VmmcDu}) {
            RawPair &p = raw_[st];
            p.ep[0] = &sys_[st]->createEndpoint(0);
            p.ep[1] = &sys_[st]->createEndpoint(1);
            sys_[st]->sim().spawn(rawSetup(p, st == VmmcAu));
            runSetup(*sys_[st]);
        }

        for (Stack st : {NxAu, NxDu}) {
            NxPair &p = nx_[st - NxAu];
            p.nx = std::make_unique<nx::NxSystem>(*sys_[st], 2);
            SpanMark m = spanBegin(sys_[st]->sim());
            sys_[st]->sim().spawn(p.nx->init());
            runSetup(*sys_[st]);
            spanEnd(Call::NxInit, m, sys_[st]->sim());
            for (int r = 0; r < 2; ++r) {
                nx::NxProc &me = p.nx->proc(r);
                me.setSendMode(st == NxAu ? nx::SendMode::AuMarshal
                                          : nx::SendMode::DuOneCopy);
                p.sbuf[r] = me.endpoint().proc().alloc(maxMsg + 64);
                p.rbuf[r] = me.endpoint().proc().alloc(maxMsg + 64);
            }
        }

        {
            vmmc::System &sys = *sys_[Sock];
            vmmc::Endpoint &server = sys.createEndpoint(1);
            vmmc::Endpoint &client = sys.createEndpoint(0);
            sock_.lib[1] = std::make_unique<sock::SocketLib>(server);
            sock_.lib[0] = std::make_unique<sock::SocketLib>(client);
            for (int s = 0; s < 2; ++s) {
                node::Process &proc = sock_.lib[s]->endpoint().proc();
                sock_.sbuf[s] = proc.alloc(maxMsg + 64);
                sock_.rbuf[s] = proc.alloc(maxMsg + 64);
            }
            sys.sim().spawn(sockAccept(sock_));
            sys.sim().spawn(sockConnect(sock_));
            runSetup(sys);
        }

        {
            vmmc::System &sys = *sys_[Vrpc];
            vmmc::Endpoint &server = sys.createEndpoint(1);
            vmmc::Endpoint &client = sys.createEndpoint(0);
            vrpc_.server = std::make_unique<rpc::VrpcServer>(server, 5000);
            vrpc_.server->registerProc(rpcProg, 1, 0, vrpcNull);
            vrpc_.server->registerProc(rpcProg, 1, 1, vrpcXform);
            vrpc_.server->start();
            vrpc_.client = std::make_unique<rpc::VrpcClient>(client);
            vrpc_.result.reserve(maxMsg);
            sys.sim().spawn(vrpcConnect(vrpc_));
            runSetup(sys);
        }

        {
            vmmc::System &sys = *sys_[Srpc];
            vmmc::Endpoint &server = sys.createEndpoint(1);
            vmmc::Endpoint &client = sys.createEndpoint(0);
            srpc_.iface.defineProc("null", {});
            for (std::size_t k = 0; k < numSizes; ++k)
                srpc_.iface.defineProc("xform" + std::to_string(4 << k),
                                       {{srpc::Dir::InOut, 4u << k}});
            srpc_.server = std::make_unique<srpc::SrpcServer>(
                server, srpc_.iface, 6000);
            srpc_.server->registerProc(0, srpcNull);
            for (std::size_t k = 0; k < numSizes; ++k)
                srpc_.server->registerProc(std::uint32_t(1 + k), srpcXform);
            srpc_.server->start();
            srpc_.client =
                std::make_unique<srpc::SrpcClient>(client, srpc_.iface);
            sys.sim().spawn(srpcBind(srpc_));
            runSetup(sys);
        }
    }

    bool
    runOp(std::uint64_t i) override
    {
        Op op = opAt(i);
        switch (op.stack) {
          case VmmcAu:
          case VmmcDu:
            return rawOp(i, op);
          case NxAu:
          case NxDu:
            return nxOp(i, op);
          case Sock:
            return sockOp(i, op);
          case Vrpc:
            return vrpcOp(i, op);
          case Srpc:
            return srpcOp(i, op);
          case NumStacks:
            break;
        }
        return false;
    }

    std::vector<AnchorResult>
    anchors() const override
    {
        double au = anchorMedian(anchorAu4);
        std::vector<std::pair<const Anchor *, double>> v{
            {&anchorAu4, au},
            {&anchorDu4, anchorMedian(anchorDu4)},
            {&anchorNxOverhead, anchorMedian(anchorNxOverhead) - au},
            {&anchorSockOverhead, anchorMedian(anchorSockOverhead) - au},
            {&anchorVrpcNull, anchorMedian(anchorVrpcNull)},
            {&anchorSrpcNull, anchorMedian(anchorSrpcNull)}};
        std::vector<AnchorResult> out;
        for (auto [a, sim] : v)
            out.push_back({a, sim, std::fabs(sim - a->paper) / a->paper *
                                       100.0});
        return out;
    }

  private:
    /** Op @p i: a seeded draw, or the anchor op its block places at
     *  this position. */
    Op
    opAt(std::uint64_t i) const
    {
        std::array<std::uint64_t, blockOps> perm;
        for (std::uint64_t k = 0; k < blockOps; ++k)
            perm[k] = k;
        Rng shuffle(mix(seed_, 0xb10c0000 + i / blockOps));
        for (std::uint64_t k = blockOps - 1; k > 0; --k)
            std::swap(perm[k], perm[shuffle.below(k + 1)]);
        for (std::size_t a = 0; a < anchorOps.size(); ++a) {
            if (perm[a] == i % blockOps)
                return {anchorOps[a].first, anchorOps[a].second, true};
        }
        Rng r(mix(seed_, i));
        Stack st = Stack(r.below(NumStacks));
        std::size_t size = std::size_t(4) << r.below(numSizes);
        if ((st == Vrpc || st == Srpc) && r.below(10) == 0)
            size = 0;
        return {st, size, false};
    }

    /** Fill msg_[dir] with op @p i's seeded payload for direction
     *  @p dir; the last word is the direction's arrival tag. */
    const std::uint8_t *
    payload(std::uint64_t i, int dir, std::size_t size)
    {
        std::memcpy(msg_[dir].data(), pool_.slice(mix(i, dir), size), size);
        std::uint32_t tag = tagOf(i, dir);
        std::memcpy(msg_[dir].data() + size - 4, &tag, 4);
        return msg_[dir].data();
    }

    bool
    rawOp(std::uint64_t i, const Op &op)
    {
        RawPair &p = raw_[op.stack];
        bool au = op.stack == VmmcAu;
        for (int d = 0; d < 2; ++d)
            p.ep[d]->proc().poke(p.user[d], payload(i, d, op.size), op.size);
        Tick rt = 0;
        bool ok = false;
        sys_[op.stack]->sim().spawn(rawPingPong(
            p, op.size, au, {tagOf(i, 0), tagOf(i, 1)}, rt, ok));
        drain(*sys_[op.stack]);
        ok = ok && matches(p.ep[1]->proc(), p.recv[1], msg_[0].data(),
                           op.size) &&
             matches(p.ep[0]->proc(), p.recv[0], msg_[1].data(), op.size);
        if (op.anchor)
            anchorSample(i, au ? anchorAu4 : anchorDu4, double(rt) / 2e3);
        return ok;
    }

    bool
    nxOp(std::uint64_t i, const Op &op)
    {
        NxPair &p = nx_[op.stack - NxAu];
        vmmc::System &sys = *sys_[op.stack];
        for (int r = 0; r < 2; ++r)
            p.nx->proc(r).endpoint().proc().poke(
                p.sbuf[r], payload(i, r, op.size), op.size);
        p.got[0] = p.got[1] = 0;
        sys.sim().spawn(nxPeer(p, 1, op.size));
        sys.sim().spawn(nxPeer(p, 0, op.size));
        drain(sys);
        bool ok = true;
        for (int r = 0; r < 2; ++r) {
            ok = ok && p.got[r] == op.size &&
                 matches(p.nx->proc(r).endpoint().proc(), p.rbuf[r],
                         msg_[1 - r].data(), op.size);
        }
        if (op.anchor)
            anchorSample(i, anchorNxOverhead, double(p.rt) / 2e3);
        return ok;
    }

    bool
    sockOp(std::uint64_t i, const Op &op)
    {
        vmmc::System &sys = *sys_[Sock];
        for (int s = 0; s < 2; ++s) {
            sock_.lib[s]->endpoint().proc().poke(
                sock_.sbuf[s], payload(i, s, op.size), op.size);
            sock_.sent[s] = sock_.got[s] = 0;
        }
        sys.sim().spawn(sockPeer(sock_, 1, op.size));
        sys.sim().spawn(sockPeer(sock_, 0, op.size));
        drain(sys);
        bool ok = true;
        for (int s = 0; s < 2; ++s) {
            ok = ok && sock_.sent[s] == long(op.size) &&
                 sock_.got[s] == long(op.size) &&
                 matches(sock_.lib[s]->endpoint().proc(), sock_.rbuf[s],
                         msg_[1 - s].data(), op.size);
        }
        if (op.anchor)
            anchorSample(i, anchorSockOverhead, double(sock_.rt) / 2e3);
        return ok;
    }

    bool
    vrpcOp(std::uint64_t i, const Op &op)
    {
        vmmc::System &sys = *sys_[Vrpc];
        const std::uint8_t *arg =
            op.size ? payload(i, 0, op.size) : msg_[0].data();
        std::uint64_t served = vrpc_.server->callsServed();
        vrpc_.result.clear();
        sys.sim().spawn(vrpcCall(vrpc_, sys.sim(), arg, op.size));
        drain(sys);
        bool ok = vrpc_.stat == rpc::AcceptStat::Success &&
                  vrpc_.server->callsServed() == served + 1;
        if (op.size) {
            std::memcpy(expect_.data(), arg, op.size);
            xform(expect_.data(), op.size);
            ok = ok && vrpc_.result.size() == op.size &&
                 std::memcmp(vrpc_.result.data(), expect_.data(),
                             op.size) == 0;
        }
        if (op.anchor)
            anchorSample(i, anchorVrpcNull, double(vrpc_.rt) / 1e3);
        return ok;
    }

    bool
    srpcOp(std::uint64_t i, const Op &op)
    {
        vmmc::System &sys = *sys_[Srpc];
        if (op.size) {
            std::memcpy(srpc_.inout.data(), payload(i, 0, op.size), op.size);
            std::memcpy(expect_.data(), msg_[0].data(), op.size);
            xform(expect_.data(), op.size);
        }
        std::uint64_t served = srpc_.server->callsServed();
        sys.sim().spawn(srpcCall(srpc_, sys.sim(), op.size));
        drain(sys);
        bool ok = srpc_.server->callsServed() == served + 1 &&
                  std::memcmp(srpc_.inout.data(), expect_.data(),
                              op.size) == 0;
        if (op.anchor)
            anchorSample(i, anchorSrpcNull, double(srpc_.rt) / 1e3);
        return ok;
    }

    PayloadPool pool_;
    std::array<std::vector<std::uint8_t>, 2> msg_;
    std::vector<std::uint8_t> expect_;
    std::array<vmmc::System *, NumStacks> sys_{};
    std::array<RawPair, 2> raw_;
    std::array<NxPair, 2> nx_;
    SockPair sock_;
    VrpcPair vrpc_;
    SrpcPair srpc_;
};

} // namespace

std::unique_ptr<Workload>
makeLatencyMix(std::uint64_t seed)
{
    return std::make_unique<LatencyMix>(seed);
}

} // namespace shrimp::bench
