/**
 * @file
 * Unit tests for the SHRIMP network interface: outgoing/incoming page
 * tables, the packetizer's write-combining and flush timer, the
 * deliberate-update engine's chunking and alignment rules, and the
 * incoming DMA engine's protection (freeze) and notification gating.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "mem/memory.hh"
#include "nic/shrimp_nic.hh"
#include "sim/bus.hh"
#include "test_util.hh"

namespace shrimp::nic
{
namespace
{

constexpr std::size_t kPage = 4096;

OptEntry
entryTo(NodeId node, PAddr base, std::size_t len)
{
    OptEntry e;
    e.valid = true;
    e.destNode = node;
    e.destBase = base;
    e.len = len;
    return e;
}

TEST(OutgoingPageTable, BindAndLookup)
{
    OutgoingPageTable opt(16);
    EXPECT_EQ(opt.lookupPage(3), nullptr);
    opt.bindPage(3, entryTo(1, 0x1000, kPage));
    ASSERT_NE(opt.lookupPage(3), nullptr);
    EXPECT_EQ(opt.lookupPage(3)->destNode, 1);
    EXPECT_EQ(opt.numBindings(), 1u);
    opt.unbindPage(3);
    EXPECT_EQ(opt.lookupPage(3), nullptr);
    EXPECT_EQ(opt.numBindings(), 0u);
}

TEST(OutgoingPageTable, RebindReplacesWithoutLeak)
{
    OutgoingPageTable opt(4);
    opt.bindPage(1, entryTo(1, 0x1000, kPage));
    opt.bindPage(1, entryTo(2, 0x2000, kPage));
    EXPECT_EQ(opt.numBindings(), 1u);
    EXPECT_EQ(opt.lookupPage(1)->destNode, 2);
}

TEST(OutgoingPageTable, OutOfRangePagePanics)
{
    OutgoingPageTable opt(4);
    EXPECT_THROW(opt.bindPage(4, entryTo(0, 0, kPage)), PanicError);
    EXPECT_EQ(opt.lookupPage(99), nullptr); // lookup is tolerant (snoop)
}

TEST(OutgoingPageTable, ImportSlots)
{
    OutgoingPageTable opt(4);
    std::uint32_t a = opt.allocSlot(entryTo(1, 0x1000, 2 * kPage));
    std::uint32_t b = opt.allocSlot(entryTo(2, 0x8000, kPage));
    EXPECT_NE(a, b);
    ASSERT_NE(opt.slot(a), nullptr);
    EXPECT_EQ(opt.slot(a)->destNode, 1);
    opt.freeSlot(a);
    EXPECT_EQ(opt.slot(a), nullptr);
    EXPECT_THROW(opt.freeSlot(a), PanicError);
    EXPECT_EQ(opt.numSlots(), 1u);
    // Ids are never reused: the next slot takes the next id, the freed
    // one stays dead, and numSlots() counts only live slots.
    std::uint32_t c = opt.allocSlot(entryTo(3, 0x4000, kPage));
    EXPECT_EQ(c, b + 1);
    EXPECT_EQ(opt.slot(a), nullptr);
    ASSERT_NE(opt.slot(c), nullptr);
    EXPECT_EQ(opt.slot(c)->destNode, 3);
    EXPECT_EQ(opt.slot(c + 1), nullptr); // never allocated
    EXPECT_THROW(opt.freeSlot(c + 1), PanicError);
    EXPECT_EQ(opt.numSlots(), 2u);
}

TEST(IncomingPageTable, EnableAndInterruptBits)
{
    IncomingPageTable ipt(8);
    EXPECT_FALSE(ipt.enabled(2));
    ipt.setEnabled(2, true);
    ipt.setInterrupt(2, true);
    EXPECT_TRUE(ipt.enabled(2));
    EXPECT_TRUE(ipt.interrupt(2));
    EXPECT_EQ(ipt.numEnabled(), 1u);
    ipt.setEnabled(2, false);
    EXPECT_EQ(ipt.numEnabled(), 0u);
}

TEST(IncomingPageTable, RangeEnabled)
{
    IncomingPageTable ipt(8);
    ipt.setEnabled(1, true);
    ipt.setEnabled(2, true);
    EXPECT_TRUE(ipt.rangeEnabled(kPage, 2 * kPage, kPage));
    EXPECT_FALSE(ipt.rangeEnabled(kPage, 2 * kPage + 1, kPage));
    EXPECT_FALSE(ipt.rangeEnabled(0, 8, kPage));
}

TEST(IncomingPageTable, OutOfRangePanics)
{
    IncomingPageTable ipt(4);
    EXPECT_THROW(ipt.setEnabled(4, true), PanicError);
    EXPECT_THROW(ipt.enabled(9), PanicError);
}

/** Harness around a Packetizer with an inspectable output FIFO. */
class PacketizerTest : public ::testing::Test
{
  protected:
    PacketizerTest()
        : fifo_(sim_.queue()), pktzr_(sim_, cfg_, 0, fifo_)
    {}

    /** Drain whatever the packetizer has emitted. */
    std::vector<net::Packet>
    drain()
    {
        std::vector<net::Packet> out;
        while (!fifo_.empty()) {
            sim_.spawn([](sim::Channel<net::Packet> &f,
                          std::vector<net::Packet> &out) -> sim::Task<> {
                out.push_back(co_await f.recv());
            }(fifo_, out));
            sim_.runAll();
        }
        return out;
    }

    MachineConfig cfg_;
    sim::Simulator sim_;
    sim::Channel<net::Packet> fifo_;
    Packetizer pktzr_;
};

TEST_F(PacketizerTest, ConsecutiveWritesCombine)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    std::uint32_t w = 0x11111111;
    for (int i = 0; i < 4; ++i)
        pktzr_.auWrite(e, 0x2000 + 4 * i, &w, 4);
    EXPECT_TRUE(pktzr_.hasPending());
    pktzr_.flushPending();
    auto pkts = drain();
    ASSERT_EQ(pkts.size(), 1u);
    EXPECT_EQ(pkts[0].payload.size(), 16u);
    EXPECT_EQ(pkts[0].destAddr, 0x2000u);
    EXPECT_EQ(pktzr_.writesCombined(), 3u);
}

TEST_F(PacketizerTest, NonConsecutiveWriteFlushesPending)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    std::uint32_t w = 7;
    pktzr_.auWrite(e, 0x2000, &w, 4);
    pktzr_.auWrite(e, 0x2100, &w, 4); // gap: first packet must flush
    pktzr_.flushPending();
    auto pkts = drain();
    ASSERT_EQ(pkts.size(), 2u);
    EXPECT_EQ(pkts[0].destAddr, 0x2000u);
    EXPECT_EQ(pkts[1].destAddr, 0x2100u);
}

TEST_F(PacketizerTest, CombineLimitForcesFlush)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    std::vector<std::uint8_t> big(cfg_.auCombineLimit, 0xEE);
    pktzr_.auWrite(e, 0x2000, big.data(), big.size());
    // Hit the limit exactly: packet goes out without further writes.
    EXPECT_FALSE(pktzr_.hasPending());
    auto pkts = drain();
    ASSERT_EQ(pkts.size(), 1u);
    EXPECT_EQ(pkts[0].payload.size(), cfg_.auCombineLimit);
}

TEST_F(PacketizerTest, NonCombinablePageSendsImmediately)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    e.combinable = false;
    std::uint32_t w = 3;
    pktzr_.auWrite(e, 0x2000, &w, 4);
    EXPECT_FALSE(pktzr_.hasPending());
    pktzr_.auWrite(e, 0x2004, &w, 4); // would combine if allowed
    auto pkts = drain();
    EXPECT_EQ(pkts.size(), 2u);
}

TEST_F(PacketizerTest, TimerFlushesIdlePending)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    std::uint32_t w = 9;
    pktzr_.auWrite(e, 0x2000, &w, 4);
    EXPECT_TRUE(pktzr_.hasPending());
    sim_.run(); // let the hardware timer fire
    EXPECT_FALSE(pktzr_.hasPending());
    EXPECT_EQ(pktzr_.timerFlushes(), 1u);
    EXPECT_GE(sim_.now(), cfg_.auCombineTimeout);
}

TEST_F(PacketizerTest, CombiningStoresLeaveOneTimerEvent)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    std::uint32_t w = 4;
    for (int i = 0; i < 8; ++i) {
        pktzr_.auWrite(e, 0x2000 + 4 * i, &w, 4);
        // The re-arm cancels the timer it replaces.
        EXPECT_EQ(sim_.queue().pending(), 1u) << "after store " << i;
    }
    EXPECT_EQ(sim_.run(), 1u); // the timer, and it flushes
    EXPECT_EQ(pktzr_.timerFlushes(), 1u);
    auto pkts = drain();
    ASSERT_EQ(pkts.size(), 1u);
    EXPECT_EQ(pkts[0].payload.size(), 32u);
}

TEST_F(PacketizerTest, RearmedTimerFlushesOneTimeoutAfterTheLastStore)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    std::uint32_t w = 5;
    const Tick at[] = {0, 300, 700};
    for (int i = 0; i < 3; ++i)
        sim_.queue().schedule(at[i], [this, &e, &w, i] {
            pktzr_.auWrite(e, 0x2000 + 4 * PAddr(i), &w, 4);
        });
    EXPECT_EQ(sim_.run(), 4u); // three stores and one timer
    EXPECT_EQ(sim_.now(), 700 + cfg_.auCombineTimeout);
    EXPECT_EQ(pktzr_.timerFlushes(), 1u);
    auto pkts = drain();
    ASSERT_EQ(pkts.size(), 1u);
    EXPECT_EQ(pkts[0].payload.size(), 12u);
}

TEST_F(PacketizerTest, FlushesCancelTheTimer)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    std::uint32_t w = 6;
    pktzr_.auWrite(e, 0x2000, &w, 4);
    pktzr_.auWrite(e, 0x2100, &w, 4); // not consecutive: flush, reopen
    EXPECT_EQ(sim_.queue().pending(), 1u); // the new packet's timer only
    net::Packet du;
    du.dst = 1;
    du.destAddr = 0x3000;
    du.payload.assign(8, 2);
    pktzr_.duPacket(std::move(du)); // flushes the AU packet first
    EXPECT_EQ(sim_.queue().pending(), 0u);
    EXPECT_EQ(sim_.run(), 0u);
    EXPECT_EQ(pktzr_.timerFlushes(), 0u);
    EXPECT_EQ(drain().size(), 3u);
}

TEST_F(PacketizerTest, TimerDisabledLeavesPending)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    e.timerEnabled = false;
    std::uint32_t w = 9;
    pktzr_.auWrite(e, 0x2000, &w, 4);
    sim_.run();
    EXPECT_TRUE(pktzr_.hasPending());
    EXPECT_EQ(pktzr_.timerFlushes(), 0u);
}

TEST_F(PacketizerTest, DuPacketFlushesPendingFirst)
{
    // Program order: an earlier AU write must not be overtaken by a
    // later deliberate update.
    OptEntry e = entryTo(1, 0x2000, kPage);
    std::uint32_t w = 1;
    pktzr_.auWrite(e, 0x2000, &w, 4);
    net::Packet du;
    du.dst = 1;
    du.destAddr = 0x3000;
    du.payload.assign(8, 2);
    pktzr_.duPacket(std::move(du));
    auto pkts = drain();
    ASSERT_EQ(pkts.size(), 2u);
    EXPECT_EQ(pkts[0].destAddr, 0x2000u); // AU first
    EXPECT_EQ(pkts[1].destAddr, 0x3000u);
}

TEST_F(PacketizerTest, InterruptFlagCarriedOnPacket)
{
    OptEntry e = entryTo(1, 0x2000, kPage);
    e.destInterrupt = true;
    std::uint32_t w = 5;
    pktzr_.auWrite(e, 0x2000, &w, 4);
    pktzr_.flushPending();
    auto pkts = drain();
    ASSERT_EQ(pkts.size(), 1u);
    EXPECT_TRUE(pkts[0].senderInterrupt);
}

/** Full-NIC harness: one NIC with memory and EISA bus, manual input. */
class NicTest : public ::testing::Test
{
  protected:
    NicTest()
        : mem_(sim_.queue(), 32 * kPage, kPage),
          eisa_(sim_.queue(), cfg_.eisaDmaBw, "eisa"),
          input_(sim_.queue()),
          nic_(sim_, cfg_, 0, mem_, eisa_, input_)
    {
        nic_.setInjector([this](net::Packet p) {
            injected_.push_back(std::move(p));
        });
        nic_.start();
    }

    MachineConfig cfg_;
    sim::Simulator sim_;
    mem::Memory mem_;
    sim::Bus eisa_;
    sim::Channel<net::Packet> input_;
    ShrimpNic nic_;
    std::vector<net::Packet> injected_;
};

TEST_F(NicTest, SnoopIgnoresUnboundPages)
{
    std::uint32_t w = 1;
    nic_.snoopWrite(0x100, &w, 4);
    sim_.run();
    EXPECT_TRUE(injected_.empty());
}

TEST_F(NicTest, SnoopOnBoundPageProducesPacket)
{
    nic_.opt().bindPage(1, entryTo(2, 0x9000, kPage));
    std::uint32_t w = 0xAA55AA55;
    nic_.snoopWrite(PAddr(kPage + 0x10), &w, 4);
    sim_.run();
    ASSERT_EQ(injected_.size(), 1u);
    EXPECT_EQ(injected_[0].dst, 2);
    EXPECT_EQ(injected_[0].destAddr, 0x9010u);
    EXPECT_EQ(injected_[0].payload.size(), 4u);
}

TEST_F(NicTest, SnoopAcrossPageBoundaryPanics)
{
    std::uint8_t buf[8] = {};
    EXPECT_THROW(nic_.snoopWrite(PAddr(kPage - 4), buf, 8), PanicError);
}

TEST_F(NicTest, DeliberateSendChunksAndDelivers)
{
    nic_.opt().allocSlot(entryTo(3, 2 * kPage, 2 * kPage));
    // Source data in local memory.
    auto data = test::pattern(kPage + 100, 7);
    mem_.write(0x0, data.data(), data.size());

    sim_.spawn([](ShrimpNic &nic, std::size_t len) -> sim::Task<> {
        co_await nic.deliberateSend(0, 0, 0x0, len, false);
    }(nic_, data.size()));
    sim_.runAll();

    // Payload bytes across all packets must equal the source (with word
    // rounding on the tail).
    std::size_t total = 0;
    PAddr expect_addr = 2 * kPage;
    for (const auto &p : injected_) {
        EXPECT_EQ(p.dst, 3);
        EXPECT_EQ(p.destAddr, expect_addr);
        EXPECT_LE(p.payload.size(), cfg_.maxPacketBytes);
        for (std::size_t i = 0; i < p.payload.size(); ++i) {
            std::size_t off = total + i;
            if (off < data.size()) {
                EXPECT_EQ(p.payload[i], data[off]);
            }
        }
        expect_addr += PAddr(p.payload.size());
        total += p.payload.size();
    }
    EXPECT_EQ(total, (data.size() + 3) & ~std::size_t(3));
    EXPECT_EQ(nic_.duEngine().transfers(), 1u);
}

TEST_F(NicTest, DeliberateSendHonorsDestPageBoundaries)
{
    nic_.opt().allocSlot(entryTo(1, 2 * kPage, 4 * kPage));
    sim_.spawn([](ShrimpNic &nic) -> sim::Task<> {
        // Start 8 bytes before a destination page boundary.
        co_await nic.deliberateSend(0, kPage - 8, 0x0, 64, false);
    }(nic_));
    sim_.runAll();
    ASSERT_GE(injected_.size(), 2u);
    EXPECT_EQ(injected_[0].payload.size(), 8u);
    EXPECT_EQ(injected_[1].destAddr % kPage, 0u);
}

TEST_F(NicTest, DeliberateSendNotifyFlagsOnlyLastChunk)
{
    nic_.opt().allocSlot(entryTo(1, 0, 4 * kPage));
    sim_.spawn([](ShrimpNic &nic, const MachineConfig &cfg) -> sim::Task<> {
        co_await nic.deliberateSend(0, 0, 0x0, cfg.maxPacketBytes * 3,
                                    true);
    }(nic_, cfg_));
    sim_.runAll();
    ASSERT_EQ(injected_.size(), 3u);
    EXPECT_FALSE(injected_[0].senderInterrupt);
    EXPECT_FALSE(injected_[1].senderInterrupt);
    EXPECT_TRUE(injected_[2].senderInterrupt);
}

TEST_F(NicTest, DeliberateSendThroughBadSlotPanics)
{
    sim_.spawn([](ShrimpNic &nic) -> sim::Task<> {
        co_await nic.deliberateSend(77, 0, 0, 16, false);
    }(nic_));
    EXPECT_THROW(sim_.runAll(), PanicError);
}

TEST_F(NicTest, IncomingDeliversToEnabledPage)
{
    nic_.ipt().setEnabled(4, true);
    net::Packet p;
    p.src = 2;
    p.dst = 0;
    p.destAddr = PAddr(4 * kPage + 16);
    p.payload = test::pattern(128, 3);
    nic_.incoming().noteInflight(p.destAddr);
    input_.send(std::move(p));
    sim_.run();
    auto expect = test::pattern(128, 3);
    std::vector<std::uint8_t> got(128);
    mem_.read(PAddr(4 * kPage + 16), got.data(), got.size());
    EXPECT_EQ(got, expect);
    EXPECT_EQ(nic_.incoming().packetsDelivered(), 1u);
    EXPECT_EQ(nic_.incoming().bytesDelivered(), 128u);
}

TEST_F(NicTest, DisabledPageFreezesAndDropResumes)
{
    int freezes = 0;
    nic_.incoming().setBadPacketHandler(
        [&](const net::Packet &, PageNum page) {
            EXPECT_EQ(page, 5u);
            ++freezes;
            nic_.incoming().unfreeze(FreezeAction::Drop);
        });
    nic_.ipt().setEnabled(6, true);

    net::Packet bad;
    bad.src = 1;
    bad.dst = 0;
    bad.destAddr = PAddr(5 * kPage);
    bad.payload.assign(32, 0xBB);
    nic_.incoming().noteInflight(bad.destAddr);
    input_.send(std::move(bad));

    net::Packet good;
    good.src = 1;
    good.dst = 0;
    good.destAddr = PAddr(6 * kPage);
    good.payload.assign(32, 0xCC);
    nic_.incoming().noteInflight(good.destAddr);
    input_.send(std::move(good));

    sim_.run();
    EXPECT_EQ(freezes, 1);
    EXPECT_EQ(nic_.incoming().packetsDropped(), 1u);
    // The good packet queued behind the freeze was still delivered.
    EXPECT_EQ(nic_.incoming().packetsDelivered(), 1u);
    EXPECT_EQ(mem_.read32(PAddr(6 * kPage)), 0xCCCCCCCCu);
}

TEST_F(NicTest, FreezeRetryAfterDaemonEnablesPage)
{
    nic_.incoming().setBadPacketHandler(
        [&](const net::Packet &, PageNum page) {
            nic_.ipt().setEnabled(page, true); // daemon fixes the IPT
            nic_.incoming().unfreeze(FreezeAction::Retry);
        });
    net::Packet p;
    p.src = 1;
    p.dst = 0;
    p.destAddr = PAddr(7 * kPage);
    p.payload.assign(16, 0xDD);
    nic_.incoming().noteInflight(p.destAddr);
    input_.send(std::move(p));
    sim_.run();
    EXPECT_EQ(nic_.incoming().packetsDelivered(), 1u);
    EXPECT_EQ(mem_.read32(PAddr(7 * kPage)), 0xDDDDDDDDu);
}

TEST_F(NicTest, FreezeWithoutHandlerPanics)
{
    net::Packet p;
    p.src = 1;
    p.dst = 0;
    p.destAddr = 0;
    p.payload.assign(16, 1);
    nic_.incoming().noteInflight(0);
    input_.send(std::move(p));
    EXPECT_THROW(sim_.run(), PanicError);
}

TEST_F(NicTest, NotificationNeedsBothFlags)
{
    // The interrupt fires only when the sender-specified packet flag AND
    // the receiver-specified IPT flag are set (paper section 3.2).
    int notifications = 0;
    nic_.incoming().setNotifyHandler(
        [&](const net::Packet &) { ++notifications; });
    nic_.ipt().setEnabled(2, true);
    nic_.ipt().setEnabled(3, true);
    nic_.ipt().setInterrupt(3, true);

    auto send = [&](PageNum page, bool sender_flag) {
        net::Packet p;
        p.src = 1;
        p.dst = 0;
        p.destAddr = PAddr(page * kPage);
        p.payload.assign(8, 0);
        p.senderInterrupt = sender_flag;
        nic_.incoming().noteInflight(p.destAddr);
        input_.send(std::move(p));
    };
    send(2, true);  // receiver flag off: no interrupt
    send(3, false); // sender flag off: no interrupt
    send(3, true);  // both: interrupt
    sim_.run();
    EXPECT_EQ(notifications, 1);
    EXPECT_EQ(nic_.incoming().notifications(), 1u);
}

TEST_F(NicTest, DrainWaitsForInflightPackets)
{
    nic_.ipt().setEnabled(2, true);
    net::Packet p;
    p.src = 1;
    p.dst = 0;
    p.destAddr = PAddr(2 * kPage);
    p.payload.assign(256, 1);
    nic_.incoming().noteInflight(p.destAddr);

    bool drained = false;
    sim_.spawn([](ShrimpNic &nic, bool &drained) -> sim::Task<> {
        co_await nic.incoming().waitDrain(2, 2);
        drained = true;
    }(nic_, drained));
    sim_.run();
    EXPECT_FALSE(drained); // packet still "in flight"
    input_.send(std::move(p));
    sim_.run();
    EXPECT_TRUE(drained);
}

TEST_F(NicTest, DrainIgnoresOtherPages)
{
    nic_.incoming().noteInflight(PAddr(9 * kPage));
    bool drained = false;
    sim_.spawn([](ShrimpNic &nic, bool &drained) -> sim::Task<> {
        co_await nic.incoming().waitDrain(2, 3);
        drained = true;
    }(nic_, drained));
    sim_.run();
    EXPECT_TRUE(drained);
}

} // namespace
} // namespace shrimp::nic
