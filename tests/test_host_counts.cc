/**
 * @file
 * Host work of two small operations, pinned exactly: the events a
 * call runs (run()'s count, and how many of them advanced in place
 * instead of being popped) and the coroutine frames it allocates
 * (DESIGN.md §11). The simulator is deterministic, so these counts
 * repeat to the unit on every machine, where a timing gate cannot
 * resolve one extra frame per XDR field or one no-op event per store.
 * A change that moves a count on purpose updates it here and says why
 * in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "rpc/server.hh"
#include "sim/task.hh"
#include "vmmc/vmmc.hh"

namespace shrimp
{
namespace
{

constexpr int kOps = 16;

/** Host work of one measured phase of a simulation. */
struct Work
{
    std::uint64_t events = 0;   //!< run()'s count: popped + in place
    std::uint64_t advanced = 0; //!< of those, advanced in place
    std::uint64_t frames = 0;   //!< coroutine frames allocated
    std::uint64_t timerFlushes = 0; //!< packetizer timer flushes

    std::uint64_t popped() const { return events - advanced; }
};

std::uint64_t
timerFlushes(vmmc::System &sys)
{
    std::uint64_t n = 0;
    for (int i = 0; i < sys.numNodes(); ++i)
        n += sys.machine().node(NodeId(i)).nic().packetizer().timerFlushes();
    return n;
}

std::uint64_t
framesAllocated()
{
    const auto s = sim::detail::FrameArena::stats();
    return s.carved + s.reused + s.oversize;
}

/** Spawn @p task on @p sys, run until the queue drains and return the
 *  host work that took. */
Work
measure(vmmc::System &sys, sim::Task<> task)
{
    sim::EventQueue &q = sys.sim().queue();
    const std::uint64_t advanced0 = q.advancedInPlace();
    const std::uint64_t frames0 = framesAllocated();
    const std::uint64_t flushes0 = timerFlushes(sys);
    sys.sim().spawn(std::move(task));
    Work w;
    w.events = sys.sim().runAll();
    w.advanced = q.advancedInPlace() - advanced0;
    w.frames = framesAllocated() - frames0;
    w.timerFlushes = timerFlushes(sys) - flushes0;
    return w;
}

std::string
describe(const Work &w)
{
    return "per op: " + std::to_string(double(w.events) / kOps) +
           " events (" + std::to_string(double(w.popped()) / kOps) +
           " popped, " + std::to_string(double(w.advanced) / kOps) +
           " in place), " + std::to_string(double(w.frames) / kOps) +
           " frames, " + std::to_string(double(w.timerFlushes) / kOps) +
           " timer flushes";
}

constexpr std::uint32_t kProg = 0x20000001;

TEST(HostWorkCounts, NullVrpcCall)
{
    vmmc::System sys; // the default 2x2 machine
    auto &server_ep = sys.createEndpoint(1);
    auto &client_ep = sys.createEndpoint(0);
    rpc::VrpcServer server(server_ep, 5000);
    server.registerProc(kProg, 1, 0,
                        [](rpc::XdrDecoder &)
                            -> sim::Task<rpc::VrpcServer::ServiceResult> {
                            co_return rpc::VrpcServer::ServiceResult{};
                        });
    server.start();
    rpc::VrpcClient client(client_ep);
    // Connect and make one call first: the measured calls then find
    // every queue, mapping and frame size class already in use.
    auto calls = [](rpc::VrpcClient &client, bool connect,
                    int n) -> sim::Task<> {
        if (connect) {
            bool up = co_await client.connect(1, 5000, kProg, 1);
            EXPECT_TRUE(up);
        }
        for (int i = 0; i < n; ++i) {
            rpc::AcceptStat st = co_await client.call(0, nullptr, nullptr);
            EXPECT_EQ(st, rpc::AcceptStat::Success);
        }
    };
    measure(sys, calls(client, true, 1));

    const Work w = measure(sys, calls(client, false, kOps));
    SCOPED_TRACE(describe(w));
    EXPECT_EQ(server.callsServed(), std::uint64_t(kOps + 1));
    // Each XDR field's store re-arms its packetizer's flush timer, and
    // the re-arm cancels the timer it replaces. Each record's control
    // word then flushes the packet, so no timer runs (one that ran and
    // found no packet would panic). DESIGN.md §11 has these counts from
    // before timers could be cancelled.
    EXPECT_EQ(w.timerFlushes, 0u);
    // The server sleeps on its stream's control block, so the call's
    // data landing in its ring no longer wakes it: one poll check (two
    // popped events) less per call. Each side's wait for a record
    // takes one ByteStream::waitReadable frame.
    EXPECT_EQ(w.events, 2016u);   // 126 per call
    EXPECT_EQ(w.advanced, 1412u); // 88.25 per call; 37.75 popped
    EXPECT_EQ(w.frames, 1697u);   // 106 per call, and the driving task
}

TEST(HostWorkCounts, FourByteAuPingPong)
{
    vmmc::System sys; // the default 2x2 machine
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    constexpr std::size_t kBuf = 4096;
    struct Side
    {
        vmmc::Endpoint *ep;
        VAddr user = 0; //!< the message's source
        VAddr recv = 0; //!< exported receive page
        VAddr au = 0;   //!< send page bound to the peer's receive page
    };
    Side sa{&a}, sb{&b};
    auto setup = [](Side &sa, Side &sb) -> sim::Task<> {
        for (Side *s : {&sa, &sb}) {
            node::Process &p = s->ep->proc();
            s->user = p.alloc(kBuf);
            s->recv = p.alloc(kBuf, CacheMode::WriteThrough);
            vmmc::Status st = co_await s->ep->exportBuffer(
                std::uint32_t(s->ep->nodeId()), s->recv, kBuf);
            EXPECT_EQ(st, vmmc::Status::Ok);
        }
        for (Side *s : {&sa, &sb}) {
            const NodeId peer = s == &sa ? sb.ep->nodeId() : sa.ep->nodeId();
            auto r = co_await s->ep->import(peer, std::uint32_t(peer));
            EXPECT_EQ(r.status, vmmc::Status::Ok);
            s->au = s->ep->proc().alloc(kBuf);
            vmmc::Status st = co_await s->ep->bindAu(s->au, kBuf, r.handle, 0);
            EXPECT_EQ(st, vmmc::Status::Ok);
        }
    };
    measure(sys, setup(sa, sb));

    // One 4-byte message each way per op: the copy into the bound page
    // is the send, and the receiver polls the word for its tag.
    auto pingPong = [](Side &sa, Side &sb, int n) -> sim::Task<> {
        for (int i = 1; i <= n; ++i) {
            for (Side *s : {&sa, &sb}) {
                Side &peer = s == &sa ? sb : sa;
                s->ep->proc().poke32(s->user, std::uint32_t(i));
                co_await s->ep->proc().copy(s->au, s->user, 4);
                co_await peer.ep->proc().waitWord32Eq(peer.recv,
                                                      std::uint32_t(i));
            }
        }
    };
    measure(sys, pingPong(sa, sb, 1));

    const Work w = measure(sys, pingPong(sa, sb, kOps));
    SCOPED_TRACE(describe(w));
    // A lone 4-byte store leaves only by its timer: one flush per
    // message, two per op. No store re-arms a timer here, so cancelling
    // timers leaves these counts alone.
    EXPECT_EQ(w.timerFlushes, std::uint64_t(2 * kOps));
    EXPECT_EQ(w.events, 380u);  // 23.75 per op
    EXPECT_EQ(w.advanced, 212u); // 13.25 per op; 10.5 popped
    EXPECT_EQ(w.frames, 97u);    // 6 per op, and the driving task
}

} // namespace
} // namespace shrimp
