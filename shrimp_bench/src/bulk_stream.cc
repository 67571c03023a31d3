/**
 * @file
 * bulk_stream: per-byte work. Each op moves a seeded 4-64 KB payload
 * from node 0 to node 1 and ends with a 4 B completion reply, over one
 * of four paths, each in its own 2x2 System: a raw VMMC DU-0copy send,
 * a raw AU-1copy copy into a bound buffer, the socket record stream
 * (7 KB records, as ttcp) and an NX large message (the zero-copy scout
 * protocol). Every block of 16 ops holds one 64 KB DU-0copy transfer,
 * the bandwidth anchor, at a seeded position.
 */

#include <array>
#include <cmath>
#include <cstring>

#include "nx/nx.hh"
#include "sock/socket.hh"
#include "workload.hh"

namespace shrimp::bench
{
namespace
{

enum Path
{
    Du0,
    Au1,
    SockStream,
    NxLarge,
    NumPaths,
};

constexpr std::size_t maxBulk = 64 * 1024;
constexpr std::size_t bulkBuf = maxBulk + 4096;
constexpr std::size_t replyBuf = 4096;
constexpr std::size_t record = 7168;
constexpr std::uint64_t blockOps = 16;

struct Op
{
    Path path;
    std::size_t size;
    bool anchor;
};

/** Raw VMMC path: node 0 sends bulk into node 1's buffer, node 1
 *  replies with one word into node 0's buffer. */
struct RawPath
{
    vmmc::Endpoint *ep[2] = {};
    VAddr user[2] = {}, recv[2] = {}, au[2] = {};
    int handle[2] = {-1, -1};
    Tick dataNs = 0;
    bool ok = false;
};

sim::Task<>
rawSetup(RawPath &p, bool au)
{
    const std::size_t recvBytes[2] = {replyBuf, bulkBuf};
    for (int s = 0; s < 2; ++s) {
        node::Process &proc = p.ep[s]->proc();
        p.user[s] = proc.alloc(recvBytes[1 - s]);
        p.recv[s] = proc.alloc(recvBytes[s], CacheMode::WriteThrough);
        SpanMark m = spanBegin(proc.sim());
        vmmc::Status st =
            co_await p.ep[s]->exportBuffer(200 + s, p.recv[s], recvBytes[s]);
        spanEnd(Call::VmmcExport, m, proc.sim());
        if (st != vmmc::Status::Ok)
            fatal("bulk_stream: export failed");
    }
    for (int s = 0; s < 2; ++s) {
        node::Process &proc = p.ep[s]->proc();
        SpanMark m = spanBegin(proc.sim());
        auto r = co_await p.ep[s]->import(p.ep[1 - s]->nodeId(), 201 - s);
        spanEnd(Call::VmmcImport, m, proc.sim());
        if (r.status != vmmc::Status::Ok)
            fatal("bulk_stream: import failed");
        p.handle[s] = r.handle;
        if (au) {
            std::size_t len = recvBytes[1 - s];
            p.au[s] = proc.alloc(len);
            vmmc::Status st =
                co_await p.ep[s]->bindAu(p.au[s], len, r.handle, 0);
            if (st != vmmc::Status::Ok)
                fatal("bulk_stream: bindAu failed");
        }
    }
}

sim::Task<>
rawTransfer(RawPath &p, std::size_t size, bool au,
            std::array<std::uint32_t, 2> tags)
{
    const std::size_t len[2] = {size, 4};
    bool ok = true;
    Tick t0 = p.ep[0]->proc().sim().now();
    for (int s = 0; s < 2; ++s) {
        node::Process &proc = p.ep[s]->proc();
        node::Process &peer = p.ep[1 - s]->proc();
        SpanMark m = spanBegin(proc.sim());
        if (au) {
            co_await proc.copy(p.au[s], p.user[s], len[s]);
            spanEnd(Call::VmmcAuCopy, m, proc.sim());
        } else {
            vmmc::Status st =
                co_await p.ep[s]->send(p.handle[s], 0, p.user[s], len[s]);
            ok = ok && st == vmmc::Status::Ok;
            spanEnd(Call::VmmcSend, m, proc.sim());
        }
        m = spanBegin(peer.sim());
        co_await peer.waitWord32Eq(VAddr(p.recv[1 - s] + len[s] - 4),
                                   tags[s]);
        spanEnd(Call::VmmcWait, m, peer.sim());
        if (s == 0)
            p.dataNs = peer.sim().now() - t0;
    }
    p.ok = ok;
}

struct SockPath
{
    std::unique_ptr<sock::SocketLib> lib[2];
    int fd[2] = {-1, -1};
    VAddr data[2] = {}, reply[2] = {};
    bool ok = false;
};

sim::Task<>
sockAccept(SockPath &p)
{
    int ls = co_await p.lib[1]->socket();
    co_await p.lib[1]->listen(ls, 4000);
    p.fd[1] = co_await p.lib[1]->accept(ls);
}

sim::Task<>
sockConnect(SockPath &p)
{
    sim::Simulator &sim = p.lib[0]->endpoint().proc().sim();
    int fd = co_await p.lib[0]->socket();
    SpanMark m = spanBegin(sim);
    int rc = co_await p.lib[0]->connect(fd, 1, 4000);
    spanEnd(Call::SockConnect, m, sim);
    if (rc != 0)
        fatal("bulk_stream: socket connect failed");
    p.fd[0] = fd;
}

/** ttcp-style sender: the payload in 7 KB records, then wait for the
 *  receiver's one-word completion reply. */
sim::Task<>
sockSender(SockPath &p, std::size_t size)
{
    sock::SocketLib &lib = *p.lib[0];
    sim::Simulator &sim = lib.endpoint().proc().sim();
    bool ok = true;
    for (std::size_t off = 0; off < size; off += record) {
        std::size_t n = std::min(record, size - off);
        SpanMark m = spanBegin(sim);
        long sent = co_await lib.send(p.fd[0], VAddr(p.data[0] + off), n);
        ok = ok && sent == long(n);
        spanEnd(Call::SockSend, m, sim);
    }
    SpanMark m = spanBegin(sim);
    long got = co_await lib.recvAll(p.fd[0], p.reply[0], 4);
    spanEnd(Call::SockRecv, m, sim);
    p.ok = ok && got == 4;
}

sim::Task<>
sockReceiver(SockPath &p, std::size_t size, bool &ok)
{
    sock::SocketLib &lib = *p.lib[1];
    sim::Simulator &sim = lib.endpoint().proc().sim();
    SpanMark m = spanBegin(sim);
    long got = co_await lib.recvAll(p.fd[1], p.data[1], size);
    spanEnd(Call::SockRecv, m, sim);
    m = spanBegin(sim);
    long sent = co_await lib.send(p.fd[1], p.reply[1], 4);
    spanEnd(Call::SockSend, m, sim);
    ok = got == long(size) && sent == 4;
}

struct NxPath
{
    std::unique_ptr<nx::NxSystem> nx;
    VAddr data[2] = {}, reply[2] = {};
    std::size_t got[2] = {};
};

sim::Task<>
nxPeer(NxPath &p, int rank, std::size_t size)
{
    nx::NxProc &me = p.nx->proc(rank);
    sim::Simulator &sim = me.endpoint().proc().sim();
    SpanMark m = spanBegin(sim);
    if (rank == 0) {
        co_await me.csend(1, p.data[0], size, 1);
        spanEnd(Call::NxCsend, m, sim);
        m = spanBegin(sim);
        p.got[0] = co_await me.crecv(2, p.reply[0], 64);
        spanEnd(Call::NxCrecv, m, sim);
    } else {
        p.got[1] = co_await me.crecv(1, p.data[1], maxBulk);
        spanEnd(Call::NxCrecv, m, sim);
        m = spanBegin(sim);
        co_await me.csend(2, p.reply[1], 4, 0);
        spanEnd(Call::NxCsend, m, sim);
    }
}

class BulkStream : public Workload
{
  public:
    explicit BulkStream(std::uint64_t seed)
        : Workload(seed), pool_(seed, 2 * maxBulk), msg_(maxBulk)
    {
    }

    std::uint64_t prefixOps() const override { return 3 * blockOps; }

    void
    setup() override
    {
        for (int p = 0; p < NumPaths; ++p)
            sys_[p] = &addSystem();

        for (Path path : {Du0, Au1}) {
            RawPath &p = raw_[path];
            p.ep[0] = &sys_[path]->createEndpoint(0);
            p.ep[1] = &sys_[path]->createEndpoint(1);
            sys_[path]->sim().spawn(rawSetup(p, path == Au1));
            runSetup(*sys_[path]);
        }

        {
            vmmc::System &sys = *sys_[SockStream];
            vmmc::Endpoint &server = sys.createEndpoint(1);
            vmmc::Endpoint &client = sys.createEndpoint(0);
            sock_.lib[1] = std::make_unique<sock::SocketLib>(server);
            sock_.lib[0] = std::make_unique<sock::SocketLib>(client);
            for (int s = 0; s < 2; ++s) {
                node::Process &proc = sock_.lib[s]->endpoint().proc();
                sock_.data[s] = proc.alloc(bulkBuf);
                sock_.reply[s] = proc.alloc(replyBuf);
            }
            sys.sim().spawn(sockAccept(sock_));
            sys.sim().spawn(sockConnect(sock_));
            runSetup(sys);
        }

        {
            vmmc::System &sys = *sys_[NxLarge];
            nx_.nx = std::make_unique<nx::NxSystem>(sys, 2);
            SpanMark m = spanBegin(sys.sim());
            sys.sim().spawn(nx_.nx->init());
            runSetup(sys);
            spanEnd(Call::NxInit, m, sys.sim());
            nx_.nx->proc(0).setSendMode(nx::SendMode::ZeroCopy);
            for (int r = 0; r < 2; ++r) {
                node::Process &proc = nx_.nx->proc(r).endpoint().proc();
                nx_.data[r] = proc.alloc(bulkBuf);
                nx_.reply[r] = proc.alloc(replyBuf);
            }
        }
    }

    bool
    runOp(std::uint64_t i) override
    {
        Op op = opAt(i);
        vmmc::System &sys = *sys_[op.path];
        const std::uint8_t *data = payload(i, op.size);
        std::uint32_t tag = tagOf(i, 1);
        switch (op.path) {
          case Du0:
          case Au1: {
            RawPath &p = raw_[op.path];
            p.ep[0]->proc().poke(p.user[0], data, op.size);
            p.ep[1]->proc().poke32(p.user[1], tag);
            p.ok = false;
            sys.sim().spawn(rawTransfer(p, op.size, op.path == Au1,
                                        {tagOf(i, 0), tag}));
            drain(sys);
            if (op.anchor)
                anchorSample(i, anchorDu0Bandwidth,
                             double(op.size) * 1e3 / double(p.dataNs));
            return p.ok && matches(p.ep[1]->proc(), p.recv[1], data,
                                   op.size) &&
                   p.ep[0]->proc().peek32(p.recv[0]) == tag;
          }
          case SockStream: {
            SockPath &p = sock_;
            p.lib[0]->endpoint().proc().poke(p.data[0], data, op.size);
            p.lib[1]->endpoint().proc().poke32(p.reply[1], tag);
            p.ok = false;
            bool recv_ok = false;
            sys.sim().spawn(sockReceiver(p, op.size, recv_ok));
            sys.sim().spawn(sockSender(p, op.size));
            drain(sys);
            return p.ok && recv_ok &&
                   matches(p.lib[1]->endpoint().proc(), p.data[1], data,
                           op.size) &&
                   p.lib[0]->endpoint().proc().peek32(p.reply[0]) == tag;
          }
          case NxLarge: {
            NxPath &p = nx_;
            node::Process &p0 = p.nx->proc(0).endpoint().proc();
            node::Process &p1 = p.nx->proc(1).endpoint().proc();
            p0.poke(p.data[0], data, op.size);
            p1.poke32(p.reply[1], tag);
            p.got[0] = p.got[1] = 0;
            sys.sim().spawn(nxPeer(p, 1, op.size));
            sys.sim().spawn(nxPeer(p, 0, op.size));
            drain(sys);
            return p.got[1] == op.size && p.got[0] == 4 &&
                   matches(p1, p.data[1], data, op.size) &&
                   p0.peek32(p.reply[0]) == tag;
          }
          case NumPaths:
            break;
        }
        return false;
    }

    std::vector<AnchorResult>
    anchors() const override
    {
        double bw = anchorMedian(anchorDu0Bandwidth);
        return {{&anchorDu0Bandwidth, bw,
                 std::fabs(bw - anchorDu0Bandwidth.paper) /
                     anchorDu0Bandwidth.paper * 100.0}};
    }

  private:
    Op
    opAt(std::uint64_t i) const
    {
        Rng block(mix(seed_, 0xb10c0000 + i / blockOps));
        if (i % blockOps == block.below(blockOps))
            return {Du0, maxBulk, true};
        Rng r(mix(seed_, i));
        Path path = Path(r.below(NumPaths));
        std::size_t words = 1024 + r.below(maxBulk / 4 - 1024 + 1);
        return {path, words * 4, false};
    }

    /** Op @p i's payload; the last word is the request's tag. */
    const std::uint8_t *
    payload(std::uint64_t i, std::size_t size)
    {
        std::memcpy(msg_.data(), pool_.slice(mix(i), size), size);
        std::uint32_t tag = tagOf(i, 0);
        std::memcpy(msg_.data() + size - 4, &tag, 4);
        return msg_.data();
    }

    PayloadPool pool_;
    std::vector<std::uint8_t> msg_;
    std::array<vmmc::System *, NumPaths> sys_{};
    std::array<RawPath, 2> raw_;
    SockPath sock_;
    NxPath nx_;
};

} // namespace

std::unique_ptr<Workload>
makeBulkStream(std::uint64_t seed)
{
    return std::make_unique<BulkStream>(seed);
}

} // namespace shrimp::bench
