/**
 * @file
 * Tests for the NX message-passing compatibility library: the one-copy
 * and zero-copy protocols, typed matching, fragmentation, credits,
 * asynchronous operations, and the global operations.
 */

#include <set>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "nx/nx.hh"
#include "test_util.hh"

namespace shrimp::nx
{
namespace
{

/** Fixture: a 4-node machine with an initialized NX process group. */
class NxTest : public ::testing::Test
{
  public:
    explicit NxTest(int nprocs = 4, NxOptions opt = NxOptions{})
        : sys_(), nx_(sys_, nprocs, opt)
    {
        test::runTask(sys_.sim(), nx_.init());
    }

    void
    runAll(std::vector<sim::Task<>> tasks)
    {
        for (auto &t : tasks)
            sys_.sim().spawn(std::move(t));
        sys_.sim().runAll();
    }

    node::Process &proc(int r) { return nx_.proc(r).endpoint().proc(); }

    vmmc::System sys_;
    NxSystem nx_;
};

TEST_F(NxTest, PingPongPreservesContent)
{
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(0);
        VAddr buf = t.proc(0).alloc(4096);
        auto data = test::pattern(512, 1);
        t.proc(0).poke(buf, data.data(), data.size());
        co_await p.csend(5, buf, data.size(), 1);
        std::size_t n = co_await p.crecv(6, buf, 4096);
        EXPECT_EQ(n, 512u);
        std::vector<std::uint8_t> got(512);
        t.proc(0).peek(buf, got.data(), got.size());
        EXPECT_EQ(got, data);
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(1);
        VAddr buf = t.proc(1).alloc(4096);
        std::size_t n = co_await p.crecv(5, buf, 4096);
        EXPECT_EQ(n, 512u);
        co_await p.csend(6, buf, n, 0);
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, ZeroLengthMessage)
{
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(0).alloc(64);
        co_await t.nx_.proc(0).csend(1, buf, 0, 1);
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(64);
        std::size_t n = co_await t.nx_.proc(1).crecv(1, buf, 64);
        EXPECT_EQ(n, 0u);
        EXPECT_EQ(t.nx_.proc(1).infocount(), 0u);
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, TypedReceiveOutOfOrder)
{
    // The receiver may consume messages out of arrival order by type --
    // the credit scheme names specific buffers for this reason.
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(0).alloc(4096);
        for (std::uint32_t ty = 10; ty <= 12; ++ty) {
            t.proc(0).poke32(buf, ty * 111);
            co_await t.nx_.proc(0).csend(long(ty), buf, 4, 1);
        }
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(1);
        VAddr buf = t.proc(1).alloc(4096);
        // Consume in reverse type order.
        for (std::uint32_t ty = 12; ty >= 10; --ty) {
            std::size_t n = co_await p.crecv(long(ty), buf, 4096);
            EXPECT_EQ(n, 4u);
            EXPECT_EQ(t.proc(1).peek32(buf), ty * 111);
            EXPECT_EQ(p.infotype(), long(ty));
            EXPECT_EQ(p.infonode(), 0);
        }
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, AnyTypeSelectorMatchesInOrder)
{
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(0).alloc(64);
        for (std::uint32_t i = 0; i < 5; ++i) {
            t.proc(0).poke32(buf, i);
            co_await t.nx_.proc(0).csend(long(100 + i), buf, 4, 1);
        }
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(64);
        for (std::uint32_t i = 0; i < 5; ++i) {
            co_await t.nx_.proc(1).crecv(nxAnyType, buf, 64);
            EXPECT_EQ(t.proc(1).peek32(buf), i); // FIFO per sender
        }
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, FragmentedMessageReassembles)
{
    // Bigger than one packet buffer (2 KB): the one-copy protocol
    // fragments, and the fragments ride consecutive stamps.
    std::vector<sim::Task<>> tasks;
    const std::size_t len = 7000;
    tasks.push_back([](NxTest &t, std::size_t len) -> sim::Task<> {
        auto &p = t.nx_.proc(0);
        p.setSendMode(SendMode::AuMarshal); // force the one-copy path
        VAddr buf = t.proc(0).alloc(8192);
        auto data = test::pattern(len, 9);
        t.proc(0).poke(buf, data.data(), data.size());
        co_await p.csend(7, buf, len, 1);
    }(*this, len));
    tasks.push_back([](NxTest &t, std::size_t len) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(8192);
        std::size_t n = co_await t.nx_.proc(1).crecv(7, buf, 8192);
        EXPECT_EQ(n, len);
        auto expect = test::pattern(len, 9);
        std::vector<std::uint8_t> got(len);
        t.proc(1).peek(buf, got.data(), got.size());
        EXPECT_EQ(got, expect);
    }(*this, len));
    runAll(std::move(tasks));
}

TEST_F(NxTest, LargeMessageUsesZeroCopyScout)
{
    std::vector<sim::Task<>> tasks;
    const std::size_t len = 40000;
    tasks.push_back([](NxTest &t, std::size_t len) -> sim::Task<> {
        VAddr buf = t.proc(0).alloc(len);
        auto data = test::pattern(len, 11);
        t.proc(0).poke(buf, data.data(), data.size());
        co_await t.nx_.proc(0).csend(8, buf, len, 1);
    }(*this, len));
    tasks.push_back([](NxTest &t, std::size_t len) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(len);
        std::size_t n = co_await t.nx_.proc(1).crecv(8, buf, len);
        EXPECT_EQ(n, len);
        auto expect = test::pattern(len, 11);
        std::vector<std::uint8_t> got(len);
        t.proc(1).peek(buf, got.data(), got.size());
        EXPECT_EQ(got, expect);
    }(*this, len));
    runAll(std::move(tasks));
}

TEST_F(NxTest, TruncatingReceiveReportsFullSize)
{
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(0).alloc(4096);
        auto data = test::pattern(600, 2);
        t.proc(0).poke(buf, data.data(), data.size());
        t.nx_.proc(0).setSendMode(SendMode::AuMarshal);
        co_await t.nx_.proc(0).csend(9, buf, 600, 1);
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(4096);
        std::size_t n = co_await t.nx_.proc(1).crecv(9, buf, 100);
        EXPECT_EQ(n, 100u); // truncated delivery
        EXPECT_EQ(t.nx_.proc(1).infocount(), 600u); // true size
        auto expect = test::pattern(600, 2);
        std::vector<std::uint8_t> got(100);
        t.proc(1).peek(buf, got.data(), got.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()));
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, ManySendsBeforeReceiveExerciseCredits)
{
    // More messages than packet buffers: the sender must stall for
    // credits and prod the receiver (paper section 6, "Interrupts").
    std::vector<sim::Task<>> tasks;
    const int n = 40; // > numBufs (8)
    tasks.push_back([](NxTest &t, int n) -> sim::Task<> {
        VAddr buf = t.proc(0).alloc(64);
        for (int i = 0; i < n; ++i) {
            t.proc(0).poke32(buf, std::uint32_t(i));
            co_await t.nx_.proc(0).csend(3, buf, 4, 1);
        }
    }(*this, n));
    tasks.push_back([](NxTest &t, int n) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(64);
        // Give the sender time to exhaust its credits first.
        co_await t.proc(1).compute(2 * units::ms);
        for (int i = 0; i < n; ++i) {
            co_await t.nx_.proc(1).crecv(3, buf, 64);
            EXPECT_EQ(t.proc(1).peek32(buf), std::uint32_t(i));
        }
    }(*this, n));
    runAll(std::move(tasks));
    EXPECT_GE(nx_.proc(0).conn(1).creditStalls(), 1u);
}

TEST_F(NxTest, IsendIrecvMsgwait)
{
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(0);
        VAddr buf = t.proc(0).alloc(256);
        t.proc(0).poke32(buf, 0xAB);
        int id = co_await p.isend(4, buf, 4, 1);
        co_await p.msgwait(id);
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(1);
        VAddr buf = t.proc(1).alloc(256);
        int id = co_await p.irecv(4, buf, 256);
        bool done_before = co_await p.msgdone(id);
        (void)done_before; // may or may not have arrived yet
        co_await p.msgwait(id);
        EXPECT_EQ(t.proc(1).peek32(buf), 0xABu);
        EXPECT_EQ(p.infocount(), 4u);
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, PostedIrecvFilledByProgress)
{
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(0);
        VAddr buf = t.proc(0).alloc(256);
        // Post the receive *before* the message exists.
        int id = co_await p.irecv(77, buf, 256);
        co_await p.msgwait(id);
        EXPECT_EQ(t.proc(0).peek32(buf), 0x77u);
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(256);
        co_await t.proc(1).compute(units::ms);
        t.proc(1).poke32(buf, 0x77);
        co_await t.nx_.proc(1).csend(77, buf, 4, 0);
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, IprobeSeesPendingMessage)
{
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(0).alloc(64);
        co_await t.nx_.proc(0).csend(21, buf, 4, 1);
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(1);
        bool seen = co_await p.iprobe(21);
        while (!seen) {
            co_await t.proc(1).compute(10 * units::us);
            seen = co_await p.iprobe(21);
        }
        bool other = co_await p.iprobe(22);
        EXPECT_FALSE(other);
        VAddr buf = t.proc(1).alloc(64);
        co_await p.crecv(21, buf, 64);
        bool after = co_await p.iprobe(21);
        EXPECT_FALSE(after);
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, PokedDescriptorIsSeenAndHiddenByTheNextScan)
{
    // An untimed write into a receive slot (a test poke, no DMA) must
    // reach the next scan: the slot mask is re-read after any write to
    // the packet buffers, however it got there.
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(1);
        bool before = co_await p.iprobe(33); // caches an empty mask
        EXPECT_FALSE(before);
        NxDesc d;
        d.stamp = 1;
        d.type = 33;
        d.size = 0;
        d.frag = 1; // fragment 0 of 1
        VAddr slot = p.conn(0).descAddr(3);
        t.proc(1).poke(slot, &d, sizeof(d));
        bool seen = co_await p.iprobe(33);
        EXPECT_TRUE(seen);
        t.proc(1).poke32(slot, 0); // stamp 0: the slot is empty again
        bool hidden = co_await p.iprobe(33);
        EXPECT_FALSE(hidden);
    }(*this));
    runAll(std::move(tasks));
}

/** Uses of @p proc's node CPU so far; each poll check is one. */
std::uint64_t
cpuUses(node::Process &proc)
{
    return proc.node().cpu().stats().get("uses");
}

TEST_F(NxTest, OnlyTheReceiveBlockWakesABlockedRank)
{
    // A rank blocked in crecv sleeps on its receive block. A write
    // elsewhere in its memory (a poke into its user buffer) charges its
    // CPU no poll check; a write into any of its regions wakes the scan,
    // which finds nothing and sleeps again: one poll check each.
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(64);
        co_await t.nx_.proc(1).crecv(40, buf, 64);
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        node::Process &p1 = t.proc(1);
        co_await t.proc(0).compute(units::ms); // rank 1 is asleep
        const std::uint64_t before = cpuUses(p1);
        const VAddr user = p1.alloc(4096);
        p1.poke32(user, 1);
        co_await t.proc(0).compute(units::ms);
        EXPECT_EQ(cpuUses(p1), before);
        for (int peer : {0, 2, 3}) {
            // The last payload word of packet buffer 0: no stamp moves.
            p1.poke32(t.nx_.proc(1).conn(peer).descAddr(0) - 4, 1);
            co_await t.proc(0).compute(units::ms);
        }
        EXPECT_EQ(cpuUses(p1), before + 3);
        VAddr buf = t.proc(0).alloc(64);
        co_await t.nx_.proc(0).csend(40, buf, 4, 1);
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, ReplyArrivingAfterACachedMissIsFound)
{
    // A reply-ring miss is cached until the control page is written;
    // the peer's reply is such a write, so the next lookup reads the
    // ring again and takes it.
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        Connection &c = t.nx_.proc(1).conn(0);
        ReplyEntry e;
        EXPECT_FALSE(c.findReply(7, e)); // caches the miss
        EXPECT_FALSE(c.hasReply(7));     // the same miss
        co_await t.proc(1).compute(units::ms);
        EXPECT_TRUE(c.hasReply(7)); // arrived, and not consumed
        EXPECT_TRUE(c.findReply(7, e));
        EXPECT_EQ(e.key, 0x1234u);
        EXPECT_EQ(e.off, 16u);
        EXPECT_EQ(e.pad, 64u);
        EXPECT_FALSE(c.findReply(7, e)); // consumed
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        co_await t.nx_.proc(0).conn(1).postReply(7, 0x1234, 16, 64);
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, DoneFlagArrivingAfterACachedMissIsFound)
{
    // The same for the done ring: a cached miss gives way to the done
    // flag the peer raises afterwards.
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        Connection &c = t.nx_.proc(1).conn(0);
        EXPECT_FALSE(c.findDone(9)); // caches the miss
        EXPECT_FALSE(c.findDone(9)); // the same miss
        co_await t.proc(1).compute(units::ms);
        EXPECT_TRUE(c.findDone(9));
        EXPECT_FALSE(c.findDone(9)); // consumed
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        co_await t.nx_.proc(0).conn(1).postDone(9);
    }(*this));
    runAll(std::move(tasks));
}

#ifdef SHRIMP_CHECK
TEST_F(NxTest, CheckedBuildHoldsEveryCachedRingMissAgainstTheRing)
{
    // Checked builds read the ring on every lookup: a lookup the cache
    // answers counts one check, and a cached miss the read contradicts
    // (a cache that ignored the control page's writes) is a violation.
    check::SimChecker &checker = check::SimChecker::instance();
    checker.setAbortOnViolation(false);
    const std::size_t violations = checker.violations().size();
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t, check::SimChecker &checker)
                        -> sim::Task<> {
        Connection &c = t.nx_.proc(1).conn(0);
        ReplyEntry e;
        EXPECT_FALSE(c.findReply(7, e));
        EXPECT_FALSE(c.findDone(9));
        std::uint64_t checks = checker.numChecks();
        EXPECT_FALSE(c.hasReply(7));
        EXPECT_FALSE(c.findDone(9));
        EXPECT_EQ(checker.numChecks() - checks, 2u);
        co_await t.proc(1).compute(units::ms);
        EXPECT_TRUE(c.findReply(7, e));
        EXPECT_TRUE(c.findDone(9));
    }(*this, checker));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        co_await t.nx_.proc(0).conn(1).postReply(7, 0x1234, 16, 64);
        co_await t.nx_.proc(0).conn(1).postDone(9);
    }(*this));
    runAll(std::move(tasks));
    EXPECT_EQ(checker.violations().size(), violations);
    checker.setAbortOnViolation(true);
}
#endif // SHRIMP_CHECK

TEST_F(NxTest, MultipleSendersToOneReceiver)
{
    std::vector<sim::Task<>> tasks;
    for (int r = 1; r < 4; ++r) {
        tasks.push_back([](NxTest &t, int r) -> sim::Task<> {
            VAddr buf = t.proc(r).alloc(64);
            t.proc(r).poke32(buf, std::uint32_t(r));
            co_await t.nx_.proc(r).csend(30 + r, buf, 4, 0);
        }(*this, r));
    }
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(0);
        VAddr buf = t.proc(0).alloc(64);
        std::set<int> sources;
        for (int i = 0; i < 3; ++i) {
            co_await p.crecv(nxAnyType, buf, 64);
            EXPECT_EQ(t.proc(0).peek32(buf),
                      std::uint32_t(p.infonode()));
            sources.insert(p.infonode());
        }
        EXPECT_EQ(sources.size(), 3u);
    }(*this));
    runAll(std::move(tasks));
}

TEST_F(NxTest, GsyncBarrierSynchronizes)
{
    std::vector<sim::Task<>> tasks;
    std::vector<Tick> after(4);
    Tick slow_release = 3 * units::ms;
    for (int r = 0; r < 4; ++r) {
        tasks.push_back([](NxTest &t, int r, std::vector<Tick> &after,
                           Tick slow_release) -> sim::Task<> {
            if (r == 2)
                co_await t.proc(r).compute(slow_release);
            co_await t.nx_.proc(r).gsync();
            after[r] = t.sys_.sim().now();
        }(*this, r, after, slow_release));
    }
    runAll(std::move(tasks));
    for (int r = 0; r < 4; ++r)
        EXPECT_GE(after[r], slow_release) << "rank " << r;
}

TEST_F(NxTest, RepeatedBarriersDontCrossTalk)
{
    std::vector<sim::Task<>> tasks;
    std::vector<int> counts(4, 0);
    for (int r = 0; r < 4; ++r) {
        tasks.push_back([](NxTest &t, int r,
                           std::vector<int> &counts) -> sim::Task<> {
            for (int i = 0; i < 5; ++i) {
                co_await t.nx_.proc(r).gsync();
                ++counts[r];
            }
        }(*this, r, counts));
    }
    runAll(std::move(tasks));
    for (int r = 0; r < 4; ++r)
        EXPECT_EQ(counts[r], 5);
}

TEST_F(NxTest, GdsumReducesAcrossAllRanks)
{
    std::vector<sim::Task<>> tasks;
    for (int r = 0; r < 4; ++r) {
        tasks.push_back([](NxTest &t, int r) -> sim::Task<> {
            double s = co_await t.nx_.proc(r).gdsum(double(r + 1));
            EXPECT_DOUBLE_EQ(s, 1 + 2 + 3 + 4);
            double m = co_await t.nx_.proc(r).gdhigh(double(r));
            EXPECT_DOUBLE_EQ(m, 3.0);
        }(*this, r));
    }
    runAll(std::move(tasks));
}

TEST_F(NxTest, MisalignedBufferStillDeliversCorrectly)
{
    // DU modes require word alignment; the library falls back to the
    // marshalled protocol and the data must still be intact.
    std::vector<sim::Task<>> tasks;
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        auto &p = t.nx_.proc(0);
        p.setSendMode(SendMode::DuOneCopy);
        VAddr buf = t.proc(0).alloc(4096);
        auto data = test::pattern(333, 13);
        t.proc(0).poke(buf + 1, data.data(), data.size()); // odd address
        co_await p.csend(40, buf + 1, data.size(), 1);
    }(*this));
    tasks.push_back([](NxTest &t) -> sim::Task<> {
        VAddr buf = t.proc(1).alloc(4096);
        std::size_t n = co_await t.nx_.proc(1).crecv(40, buf + 3, 4000);
        EXPECT_EQ(n, 333u);
        auto expect = test::pattern(333, 13);
        std::vector<std::uint8_t> got(333);
        t.proc(1).peek(buf + 3, got.data(), got.size());
        EXPECT_EQ(got, expect);
    }(*this));
    runAll(std::move(tasks));
}

/** Property sweep: every forced send mode delivers every size intact. */
class NxModeSweep
    : public ::testing::TestWithParam<std::tuple<SendMode, std::size_t>>
{
};

TEST_P(NxModeSweep, ContentIntegrity)
{
    auto [mode, len] = GetParam();
    vmmc::System sys;
    NxSystem nx(sys, 2);
    test::runTask(sys.sim(), nx.init());

    auto data = test::pattern(len, std::uint32_t(len) * 7 + 1);
    sys.sim().spawn([](NxSystem &nx, SendMode mode,
                       std::vector<std::uint8_t> data) -> sim::Task<> {
        auto &p = nx.proc(0);
        p.setSendMode(mode);
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(std::max<std::size_t>(data.size(), 4));
        if (!data.empty())
            proc.poke(buf, data.data(), data.size());
        co_await p.csend(1, buf, data.size(), 1);
        co_await p.gsync();
    }(nx, mode, data));
    sys.sim().spawn([](NxSystem &nx,
                       std::vector<std::uint8_t> expect) -> sim::Task<> {
        auto &p = nx.proc(1);
        auto &proc = p.endpoint().proc();
        std::size_t cap = std::max<std::size_t>(expect.size(), 4);
        VAddr buf = proc.alloc(cap);
        std::size_t n = co_await p.crecv(1, buf, cap);
        EXPECT_EQ(n, expect.size());
        std::vector<std::uint8_t> got(n);
        if (n)
            proc.peek(buf, got.data(), n);
        EXPECT_EQ(got, expect);
        co_await p.gsync();
    }(nx, data));
    sys.sim().runAll();
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndSizes, NxModeSweep,
    ::testing::Combine(
        ::testing::Values(SendMode::AuMarshal, SendMode::DuTwoCopy,
                          SendMode::DuOneCopy, SendMode::ZeroCopy,
                          SendMode::Auto),
        ::testing::Values(std::size_t(4), std::size_t(64),
                          std::size_t(257), std::size_t(2048),
                          std::size_t(4099), std::size_t(10240))));

TEST(NxPlacement, TwoProcessesPerNode)
{
    vmmc::System sys;
    NxSystem nx(sys, 8); // 8 ranks on 4 nodes
    test::runTask(sys.sim(), nx.init());
    for (int r = 0; r < 8; ++r) {
        sys.sim().spawn([](NxSystem &nx, int r) -> sim::Task<> {
            double s = co_await nx.proc(r).gdsum(1.0);
            EXPECT_DOUBLE_EQ(s, 8.0);
        }(nx, r));
    }
    sys.sim().runAll();
}

TEST(NxPlacement, AMessageToOneRankDoesNotWakeItsNodeMate)
{
    // Ranks 1 and 5 share node 1. Rank 5 blocks in crecv while a
    // message lands in rank 1's receive block, and rank 1 is not
    // polling: node 1's CPU is charged no poll check for rank 5.
    vmmc::System sys;
    NxSystem nx(sys, 8); // 8 ranks on 4 nodes
    test::runTask(sys.sim(), nx.init());
    node::Process &rank5 = nx.proc(5).endpoint().proc();
    ASSERT_EQ(&rank5.node(), &nx.proc(1).endpoint().proc().node());
    sys.sim().spawn([](NxSystem &nx) -> sim::Task<> {
        NxProc &p = nx.proc(5);
        VAddr buf = p.endpoint().proc().alloc(64);
        co_await p.crecv(50, buf, 64);
    }(nx));
    sys.sim().spawn([](NxSystem &nx) -> sim::Task<> {
        NxProc &p = nx.proc(1);
        co_await sim::Delay{p.endpoint().proc().sim().queue(),
                            3 * units::ms};
        VAddr buf = p.endpoint().proc().alloc(64);
        co_await p.crecv(51, buf, 64);
    }(nx));
    test::runTask(sys.sim(), [](NxSystem &nx,
                                node::Process &rank5) -> sim::Task<> {
        NxProc &p = nx.proc(0);
        node::Process &proc = p.endpoint().proc();
        co_await proc.compute(units::ms); // rank 5 is asleep
        const std::uint64_t before = cpuUses(rank5);
        VAddr buf = proc.alloc(64);
        co_await p.csend(51, buf, 4, 1);
        co_await proc.compute(units::ms); // in rank 1's packet buffers
        EXPECT_EQ(cpuUses(rank5), before);
        co_await p.csend(50, buf, 4, 5);
    }(nx, rank5));
}

TEST(NxOptionsTest, SmallBufferCountStillCorrect)
{
    NxOptions opt;
    opt.numBufs = 2;
    opt.pktDataBytes = 256;
    vmmc::System sys;
    NxSystem nx(sys, 2, opt);
    test::runTask(sys.sim(), nx.init());
    auto data = test::pattern(5000, 3);
    sys.sim().spawn([](NxSystem &nx,
                       std::vector<std::uint8_t> data) -> sim::Task<> {
        auto &p = nx.proc(0);
        p.setSendMode(SendMode::AuMarshal); // force fragmentation
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(data.size());
        proc.poke(buf, data.data(), data.size());
        co_await p.csend(1, buf, data.size(), 1);
    }(nx, data));
    sys.sim().spawn([](NxSystem &nx,
                       std::vector<std::uint8_t> expect) -> sim::Task<> {
        auto &p = nx.proc(1);
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(expect.size());
        std::size_t n = co_await p.crecv(1, buf, expect.size());
        EXPECT_EQ(n, expect.size());
        std::vector<std::uint8_t> got(n);
        proc.peek(buf, got.data(), n);
        EXPECT_EQ(got, expect);
    }(nx, data));
    sys.sim().runAll();
}

TEST(NxOptionsTest, BufferCountOutsideTwoToSixtyFourIsRejected)
{
    for (int bufs : {1, 65}) {
        NxOptions opt;
        opt.numBufs = bufs;
        vmmc::System sys;
        EXPECT_THROW(NxSystem(sys, 2, opt), FatalError) << bufs;
    }
}

TEST(NxOptionsTest, SixtyFourBuffersAllCarryMessages)
{
    // The largest buffer count: the sender fills every slot, bit 63 of
    // the receiver's slot mask included, before anything is received.
    NxOptions opt;
    opt.numBufs = 64;
    opt.pktDataBytes = 256;
    vmmc::System sys;
    NxSystem nx(sys, 2, opt);
    test::runTask(sys.sim(), nx.init());
    const int n = 70;
    sys.sim().spawn([](NxSystem &nx, int n) -> sim::Task<> {
        auto &proc = nx.proc(0).endpoint().proc();
        VAddr buf = proc.alloc(64);
        for (int i = 0; i < n; ++i) {
            proc.poke32(buf, std::uint32_t(i));
            co_await nx.proc(0).csend(3, buf, 4, 1);
        }
    }(nx, n));
    sys.sim().spawn([](NxSystem &nx, int n) -> sim::Task<> {
        auto &proc = nx.proc(1).endpoint().proc();
        VAddr buf = proc.alloc(64);
        co_await proc.compute(2 * units::ms);
        for (int i = 0; i < n; ++i) {
            co_await nx.proc(1).crecv(3, buf, 64);
            EXPECT_EQ(proc.peek32(buf), std::uint32_t(i));
        }
    }(nx, n));
    sys.sim().runAll();
    EXPECT_GE(nx.proc(0).conn(1).creditStalls(), 1u);
}

} // namespace
} // namespace shrimp::nx

namespace shrimp::nx
{
namespace
{

TEST(NxProbeOps, CprobeBlocksUntilArrivalWithoutConsuming)
{
    vmmc::System sys;
    NxSystem nxs(sys, 2);
    test::runTask(sys.sim(), nxs.init());
    Tick probed_at = 0;
    sys.sim().spawn([](NxSystem &nxs, Tick &probed_at) -> sim::Task<> {
        auto &p = nxs.proc(1);
        co_await p.cprobe(60);
        probed_at = p.endpoint().proc().sim().now();
        EXPECT_EQ(p.infotype(), 60);
        EXPECT_EQ(p.infonode(), 0);
        // Still there: consume it now.
        VAddr buf = p.endpoint().proc().alloc(256);
        std::size_t n = co_await p.crecv(60, buf, 256);
        EXPECT_EQ(n, 48u);
    }(nxs, probed_at));
    sys.sim().spawn([](NxSystem &nxs) -> sim::Task<> {
        auto &p = nxs.proc(0);
        auto &proc = p.endpoint().proc();
        co_await sim::Delay{proc.sim().queue(), 2 * units::ms};
        VAddr buf = proc.alloc(256);
        co_await p.csend(60, buf, 48, 1);
    }(nxs));
    sys.sim().runAll();
    EXPECT_GE(probed_at, 2 * units::ms);
}

TEST(NxProbeOps, CsendrecvRoundTrips)
{
    vmmc::System sys;
    NxSystem nxs(sys, 2);
    test::runTask(sys.sim(), nxs.init());
    sys.sim().spawn([](NxSystem &nxs) -> sim::Task<> {
        auto &p = nxs.proc(0);
        auto &proc = p.endpoint().proc();
        VAddr sbuf = proc.alloc(256);
        VAddr rbuf = proc.alloc(256);
        proc.poke32(sbuf, 0x1234);
        std::size_t n =
            co_await p.csendrecv(61, sbuf, 4, 1, 62, rbuf, 256);
        EXPECT_EQ(n, 4u);
        EXPECT_EQ(proc.peek32(rbuf), 0x1235u);
    }(nxs));
    sys.sim().spawn([](NxSystem &nxs) -> sim::Task<> {
        auto &p = nxs.proc(1);
        auto &proc = p.endpoint().proc();
        VAddr buf = proc.alloc(256);
        co_await p.crecv(61, buf, 256);
        proc.poke32(buf, proc.peek32(buf) + 1);
        co_await p.csend(62, buf, 4, 0);
    }(nxs));
    sys.sim().runAll();
}

} // namespace
} // namespace shrimp::nx
