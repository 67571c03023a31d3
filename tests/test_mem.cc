/**
 * @file
 * Unit tests for the memory subsystem: physical memory with write
 * watchpoints and per-process address spaces / page tables.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "mem/address_space.hh"
#include "mem/memory.hh"
#include "mem/zero_region.hh"
#include "sim/simulator.hh"

namespace shrimp::mem
{
namespace
{

constexpr std::size_t kPage = 4096;

TEST(Memory, ReadsBackWrites)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    std::uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8};
    m.write(100, data, sizeof(data));
    std::uint8_t out[16] = {};
    m.read(100, out, sizeof(out));
    EXPECT_EQ(0, memcmp(data, out, sizeof(data)));
}

TEST(Memory, Word32Helpers)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    m.write32(64, 0xdeadbeef);
    EXPECT_EQ(m.read32(64), 0xdeadbeefu);
}

TEST(Memory, OutOfRangeAccessPanics)
{
    sim::Simulator s;
    Memory m(s.queue(), 4 * kPage, kPage);
    std::uint8_t b[8] = {};
    EXPECT_THROW(m.write(4 * kPage - 4, b, 8), PanicError);
    EXPECT_THROW(m.read(4 * kPage, b, 1), PanicError);
    // Boundary access is fine.
    EXPECT_NO_THROW(m.write(4 * kPage - 8, b, 8));
}

TEST(Memory, PageOf)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    EXPECT_EQ(m.pageOf(0), 0u);
    EXPECT_EQ(m.pageOf(kPage - 1), 0u);
    EXPECT_EQ(m.pageOf(kPage), 1u);
    EXPECT_EQ(m.numPages(), 16u);
}

TEST(Memory, WriteWakesWatcher)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    Tick woke_at = 0;
    s.spawn([](sim::Simulator &s, Memory &m, Tick &woke_at) -> sim::Task<> {
        while (m.read32(0) == 0)
            co_await m.waitWrite(0, 4);
        woke_at = s.now();
    }(s, m, woke_at));
    s.queue().scheduleIn(500, [&] { m.write32(0, 7); });
    s.runAll();
    EXPECT_EQ(woke_at, 500u);
}

TEST(Memory, TargetedWaitIgnoresDisjointWrites)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    Tick woke_at = 0;
    s.spawn([](sim::Simulator &s, Memory &m, Tick &woke_at) -> sim::Task<> {
        co_await m.waitWrite(256, 4);
        woke_at = s.now();
    }(s, m, woke_at));
    s.queue().scheduleIn(100, [&] { m.write32(512, 1); });   // disjoint
    s.queue().scheduleIn(150, [&] { m.write32(252, 2); });   // [252,256)
    s.queue().scheduleIn(200, [&] { m.write32(256, 3); });   // overlaps
    s.runAll();
    EXPECT_EQ(woke_at, 200u);
}

TEST(Memory, TargetedWaitWakesOnPartialOverlap)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    Tick woke_at = 0;
    s.spawn([](sim::Simulator &s, Memory &m, Tick &woke_at) -> sim::Task<> {
        co_await m.waitWrite(256, 4);
        woke_at = s.now();
    }(s, m, woke_at));
    // An 8-byte store at 252 covers [252,260): its tail touches the
    // watched word.
    std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    s.queue().scheduleIn(300, [&] { m.write(252, buf, sizeof(buf)); });
    s.runAll();
    EXPECT_EQ(woke_at, 300u);
}

TEST(Memory, WriteSequenceMarksBothPagesOfASpanningWrite)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    std::uint64_t before = m.writeCount();
    std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    m.write(2 * kPage - 4, buf, sizeof(buf)); // [2p-4, 2p+4)
    EXPECT_TRUE(m.writtenSince(1 * kPage, kPage, before));
    EXPECT_TRUE(m.writtenSince(2 * kPage, kPage, before));
    EXPECT_FALSE(m.writtenSince(0, kPage, before));
    EXPECT_FALSE(m.writtenSince(3 * kPage, kPage, before));
}

TEST(Memory, WriteSequenceMarksWord32Page)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    std::uint64_t before = m.writeCount();
    m.write32(3 * kPage + 8, 5);
    EXPECT_TRUE(m.writtenSince(3 * kPage + 100, 4, before));
    EXPECT_FALSE(m.writtenSince(2 * kPage, kPage, before));
    EXPECT_FALSE(m.writtenSince(4 * kPage, kPage, before));
    // A range reaching into the page counts.
    EXPECT_TRUE(m.writtenSince(2 * kPage, kPage + 1, before));
}

TEST(Memory, WriteSequenceSeesOnlyLaterWrites)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    m.write32(1 * kPage, 1);
    std::uint64_t mid = m.writeCount();
    m.write32(4 * kPage, 2);
    EXPECT_FALSE(m.writtenSince(1 * kPage, kPage, mid));
    EXPECT_TRUE(m.writtenSince(4 * kPage, kPage, mid));
    EXPECT_TRUE(m.writtenSince(1 * kPage, 4 * kPage, mid));
    EXPECT_FALSE(m.writtenSince(4 * kPage, kPage, m.writeCount()));
    // Rewriting the earlier page marks it again.
    m.write32(1 * kPage + 4, 3);
    EXPECT_TRUE(m.writtenSince(1 * kPage, kPage, mid));
}

TEST(Memory, WriteSequenceSeesWritesPastTableEnd)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    m.write32(0, 1); // the table now covers page 0 only
    std::uint64_t seq = m.writeCount();
    EXPECT_FALSE(m.writtenSince(12 * kPage, 4 * kPage, seq));
    m.write32(13 * kPage, 2);
    EXPECT_TRUE(m.writtenSince(12 * kPage, 4 * kPage, seq));
    EXPECT_TRUE(m.writtenSince(13 * kPage, 4, seq));
    EXPECT_FALSE(m.writtenSince(14 * kPage, 2 * kPage, seq));
    EXPECT_FALSE(m.writtenSince(0, kPage, seq));
}

TEST(Memory, WriteSequenceNeverWrittenPageIsClean)
{
    sim::Simulator s;
    Memory m(s.queue(), 16 * kPage, kPage);
    EXPECT_FALSE(m.writtenSince(0, 16 * kPage, 0));
    m.write32(5 * kPage, 1);
    // Pages below and above the written one read clean even against
    // the oldest sequence.
    EXPECT_FALSE(m.writtenSince(4 * kPage, kPage, 0));
    EXPECT_FALSE(m.writtenSince(6 * kPage, kPage, 0));
    EXPECT_TRUE(m.writtenSince(0, 16 * kPage, 0));
    EXPECT_FALSE(m.writtenSince(5 * kPage, 0, 0)); // empty range
}

TEST(Memory, Word32OutOfRangePanics)
{
    sim::Simulator s;
    Memory m(s.queue(), 4 * kPage, kPage);
    EXPECT_THROW(m.write32(4 * kPage - 2, 1), PanicError);
    EXPECT_THROW(m.read32(4 * kPage), PanicError);
    EXPECT_NO_THROW(m.write32(4 * kPage - 4, 1)); // boundary word fits
    EXPECT_EQ(m.read32(4 * kPage - 4), 1u);
}

TEST(Memory, FrameAllocatorIsContiguousAndExhausts)
{
    sim::Simulator s;
    Memory m(s.queue(), 4 * kPage, kPage);
    PAddr a = m.allocFrames(2);
    PAddr b = m.allocFrames(1);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, PAddr(2 * kPage));
    EXPECT_EQ(m.freeFrames(), 1u);
    EXPECT_THROW(m.allocFrames(2), FatalError);
    EXPECT_NO_THROW(m.allocFrames(1));
}

TEST(Memory, RejectsUnalignedSize)
{
    sim::Simulator s;
    EXPECT_THROW(Memory(s.queue(), kPage + 5, kPage), FatalError);
}

TEST(Memory, RejectsPageSizeThatIsNotAPowerOfTwo)
{
    sim::Simulator s;
    EXPECT_THROW(Memory(s.queue(), 4 * 3000, 3000), FatalError);
}

TEST(Memory, RecycledRegionReadsZeroAfterRezeroingExactlyTheWrittenPages)
{
    // Write through every write path, destroy the memory and build a
    // same-size one: it is served from the pool, every byte reads zero,
    // and only the stamped pages were re-zeroed.
    constexpr std::size_t kBytes = 40 * kPage;
    sim::Simulator s;
    ZeroRegion::drainPool();
    std::size_t rezeroed0 = 0;
    {
        Memory m(s.queue(), kBytes, kPage);
        std::uint8_t buf[16];
        std::fill(std::begin(buf), std::end(buf), 0xa5);
        m.write(100, buf, sizeof(buf));       // page 0
        m.write32(5 * kPage + 8, 0xdeadbeef); // page 5
        m.write(9 * kPage - 3, buf, 8);       // pages 8 and 9
        m.write(kBytes - 1, buf, 1);          // page 39, the last byte
        m.write(20 * kPage, buf, 0);          // writes nothing
        rezeroed0 = ZeroRegion::poolBytesRezeroed();
    }
    EXPECT_EQ(ZeroRegion::poolBytesRezeroed() - rezeroed0, 5 * kPage);

    const std::size_t reuse0 = ZeroRegion::poolReuseCount();
    Memory m(s.queue(), kBytes, kPage);
    EXPECT_EQ(ZeroRegion::poolReuseCount(), reuse0 + 1);
    std::vector<std::uint8_t> all(kBytes, 0xff);
    m.read(0, all.data(), all.size());
    EXPECT_TRUE(std::all_of(all.begin(), all.end(),
                            [](std::uint8_t b) { return b == 0; }));
}

class AddressSpaceTest : public ::testing::Test
{
  protected:
    AddressSpaceTest() : mem_(sim_.queue(), 64 * kPage, kPage), as_(mem_) {}

    sim::Simulator sim_;
    Memory mem_;
    AddressSpace as_;
};

TEST_F(AddressSpaceTest, AllocReturnsPageAligned)
{
    VAddr a = as_.alloc(100);
    EXPECT_EQ(a % kPage, 0u);
    EXPECT_TRUE(as_.mapped(a, 100));
    // Rounded up to a whole page.
    EXPECT_TRUE(as_.mapped(a, kPage));
    EXPECT_FALSE(as_.mapped(a, kPage + 1));
}

TEST_F(AddressSpaceTest, DistinctAllocationsDontOverlap)
{
    VAddr a = as_.alloc(2 * kPage);
    VAddr b = as_.alloc(kPage);
    EXPECT_GE(b, a + 2 * kPage);
    EXPECT_NE(as_.translate(a), as_.translate(b));
}

TEST_F(AddressSpaceTest, TranslateIsConsistentWithinPage)
{
    VAddr a = as_.alloc(kPage);
    PAddr pa = as_.translate(a);
    EXPECT_EQ(as_.translate(a + 123), pa + 123);
}

TEST_F(AddressSpaceTest, AllocationsArePhysicallyContiguous)
{
    VAddr a = as_.alloc(4 * kPage);
    PAddr pa = as_.translateRange(a, 4 * kPage);
    EXPECT_EQ(as_.translate(a + 3 * kPage), pa + 3 * kPage);
}

TEST_F(AddressSpaceTest, UnmappedAccessPanics)
{
    EXPECT_THROW(as_.translate(0x10), PanicError);
    VAddr a = as_.alloc(kPage);
    EXPECT_THROW(as_.translateRange(a, 2 * kPage), PanicError);
}

TEST_F(AddressSpaceTest, ZeroAllocRejected)
{
    EXPECT_THROW(as_.alloc(0), FatalError);
}

TEST_F(AddressSpaceTest, CacheModesPerPage)
{
    VAddr a = as_.alloc(2 * kPage, CacheMode::WriteBack);
    EXPECT_EQ(as_.cacheMode(a), CacheMode::WriteBack);
    as_.setCacheMode(a, kPage, CacheMode::WriteThrough);
    EXPECT_EQ(as_.cacheMode(a), CacheMode::WriteThrough);
    EXPECT_EQ(as_.cacheMode(a + kPage), CacheMode::WriteBack);
}

TEST_F(AddressSpaceTest, AllocWithModeAppliesToAllPages)
{
    VAddr a = as_.alloc(3 * kPage, CacheMode::Uncached);
    for (int p = 0; p < 3; ++p)
        EXPECT_EQ(as_.cacheMode(a + p * kPage), CacheMode::Uncached);
}

TEST_F(AddressSpaceTest, MultipleSpacesShareOneMemory)
{
    AddressSpace other(mem_);
    VAddr a = as_.alloc(kPage);
    VAddr b = other.alloc(kPage);
    // Same virtual layout, different frames.
    EXPECT_NE(as_.translate(a), other.translate(b));
}

} // namespace
} // namespace shrimp::mem
