/**
 * @file
 * Unit tests for the node layer: CPU timing/contention, the Process
 * memory operations (store path with snooping, polling), the Ethernet
 * side channel, and Machine wiring.
 */

#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "mem/zero_region.hh"
#include "node/machine.hh"
#include "test_util.hh"

namespace shrimp::node
{
namespace
{

class NodeTest : public ::testing::Test
{
  protected:
    NodeTest() : machine_() {}

    Machine machine_;
};

TEST_F(NodeTest, MachineBuildsConfiguredNodes)
{
    EXPECT_EQ(machine_.numNodes(), 4);
    EXPECT_EQ(machine_.mesh().numNodes(), 4);
    for (NodeId i = 0; i < 4; ++i)
        EXPECT_EQ(machine_.node(i).id(), i);
}

TEST_F(NodeTest, CpuChargesTime)
{
    Process &p = machine_.spawnProcess(0);
    test::runTask(machine_.sim(), [](Process &p) -> sim::Task<> {
        Tick t0 = p.sim().now();
        co_await p.compute(1234);
        EXPECT_EQ(p.sim().now() - t0, 1234u);
    }(p));
}

TEST_F(NodeTest, CpuSerializesProcessesOnOneNode)
{
    Process &a = machine_.spawnProcess(0);
    Process &b = machine_.spawnProcess(0);
    Tick a_done = 0, b_done = 0;
    machine_.sim().spawn([](Process &p, Tick &done) -> sim::Task<> {
        co_await p.compute(1000);
        done = p.sim().now();
    }(a, a_done));
    machine_.sim().spawn([](Process &p, Tick &done) -> sim::Task<> {
        co_await p.compute(1000);
        done = p.sim().now();
    }(b, b_done));
    machine_.sim().runAll();
    EXPECT_EQ(a_done, 1000u);
    EXPECT_EQ(b_done, 2000u); // same CPU: strictly serialized
}

TEST_F(NodeTest, CpusOnDifferentNodesRunInParallel)
{
    Process &a = machine_.spawnProcess(0);
    Process &b = machine_.spawnProcess(1);
    Tick a_done = 0, b_done = 0;
    machine_.sim().spawn([](Process &p, Tick &done) -> sim::Task<> {
        co_await p.compute(1000);
        done = p.sim().now();
    }(a, a_done));
    machine_.sim().spawn([](Process &p, Tick &done) -> sim::Task<> {
        co_await p.compute(1000);
        done = p.sim().now();
    }(b, b_done));
    machine_.sim().runAll();
    EXPECT_EQ(a_done, 1000u);
    EXPECT_EQ(b_done, 1000u);
}

TEST_F(NodeTest, WriteReadRoundTrip)
{
    Process &p = machine_.spawnProcess(0);
    test::runTask(machine_.sim(), [](Process &p) -> sim::Task<> {
        VAddr buf = p.alloc(8192);
        auto data = test::pattern(5000, 42);
        co_await p.write(buf, data.data(), data.size());
        std::vector<std::uint8_t> out(5000);
        co_await p.read(buf, out.data(), out.size());
        EXPECT_EQ(out, data);
    }(p));
}

TEST_F(NodeTest, WriteCostDependsOnCacheMode)
{
    Process &p = machine_.spawnProcess(0);
    test::runTask(machine_.sim(), [](Process &p) -> sim::Task<> {
        VAddr wb = p.alloc(4096, CacheMode::WriteBack);
        VAddr wt = p.alloc(4096, CacheMode::WriteThrough);
        std::vector<std::uint8_t> d(4096, 1);
        Tick t0 = p.sim().now();
        co_await p.write(wb, d.data(), d.size());
        Tick wb_cost = p.sim().now() - t0;
        t0 = p.sim().now();
        co_await p.write(wt, d.data(), d.size());
        Tick wt_cost = p.sim().now() - t0;
        // Write-through is slower (it's the AU "extra copy" cost).
        EXPECT_GT(wt_cost, wb_cost);
    }(p));
}

TEST_F(NodeTest, PokePeekAreUntimed)
{
    Process &p = machine_.spawnProcess(0);
    VAddr buf = p.alloc(4096);
    p.poke32(buf, 0xfeedface);
    EXPECT_EQ(p.peek32(buf), 0xfeedfaceu);
    EXPECT_EQ(machine_.sim().now(), 0u);
}

TEST_F(NodeTest, Store32Load32)
{
    Process &p = machine_.spawnProcess(0);
    test::runTask(machine_.sim(), [](Process &p) -> sim::Task<> {
        VAddr buf = p.alloc(4096);
        co_await p.store32(buf + 12, 99);
        std::uint32_t v = co_await p.load32(buf + 12);
        EXPECT_EQ(v, 99u);
    }(p));
}

TEST_F(NodeTest, CopyMovesDataWithinProcess)
{
    Process &p = machine_.spawnProcess(0);
    test::runTask(machine_.sim(), [](Process &p) -> sim::Task<> {
        VAddr a = p.alloc(4096);
        VAddr b = p.alloc(4096);
        auto data = test::pattern(1000, 5);
        p.poke(a, data.data(), data.size());
        co_await p.copy(b, a, data.size());
        std::vector<std::uint8_t> out(1000);
        p.peek(b, out.data(), out.size());
        EXPECT_EQ(out, data);
    }(p));
}

TEST_F(NodeTest, WaitWord32WakesOnDmaStyleWrite)
{
    Process &a = machine_.spawnProcess(0);
    VAddr flag = a.alloc(4096);
    Tick seen = 0;
    machine_.sim().spawn([](Process &a, VAddr flag, Tick &seen)
                             -> sim::Task<> {
        std::uint32_t v = co_await a.waitWord32Ne(flag, 0);
        EXPECT_EQ(v, 31u);
        seen = a.sim().now();
    }(a, flag, seen));
    // Write the flag from "outside" (as the incoming DMA engine would).
    machine_.sim().queue().scheduleIn(8000, [&] {
        machine_.node(0).memory().write32(a.as().translate(flag), 31);
    });
    machine_.sim().runAll();
    EXPECT_GE(seen, 8000u);
}

TEST_F(NodeTest, WaitWord32IgnoresNonMatchingWrites)
{
    Process &a = machine_.spawnProcess(0);
    VAddr flag = a.alloc(4096);
    int wrong_values_seen = 0;
    machine_.sim().spawn([](Process &a, VAddr flag,
                            int &wrong) -> sim::Task<> {
        std::uint32_t v = co_await a.waitWord32Eq(flag, 7);
        EXPECT_EQ(v, 7u);
        (void)wrong;
    }(a, flag, wrong_values_seen));
    auto &mem = machine_.node(0).memory();
    PAddr pa = a.as().translate(flag);
    machine_.sim().queue().scheduleIn(100, [&mem, pa] {
        mem.write32(pa, 3); // not the value being waited for
    });
    machine_.sim().queue().scheduleIn(200, [&mem, pa] {
        mem.write32(pa, 7);
    });
    machine_.sim().runAll();
    EXPECT_GE(machine_.sim().now(), 200u);
}

TEST_F(NodeTest, DetectPenaltyOnlyForCachedPages)
{
    Process &p = machine_.spawnProcess(0);
    test::runTask(machine_.sim(), [](Process &p) -> sim::Task<> {
        VAddr cached = p.alloc(4096, CacheMode::WriteBack);
        VAddr uncached = p.alloc(4096, CacheMode::Uncached);
        Tick t0 = p.sim().now();
        co_await p.detectPenalty(cached);
        Tick c = p.sim().now() - t0;
        t0 = p.sim().now();
        co_await p.detectPenalty(uncached);
        Tick u = p.sim().now() - t0;
        EXPECT_EQ(c, p.config().wtReceivePenalty);
        EXPECT_EQ(u, 0u);
    }(p));
}

TEST_F(NodeTest, EtherDeliversBetweenNodes)
{
    EtherNet &ether = machine_.ether();
    std::vector<std::uint8_t> payload{1, 2, 3, 4};
    ether.send(0, 500, 2, 600, payload);
    bool got = false;
    machine_.sim().spawn([](EtherNet &ether, bool &got) -> sim::Task<> {
        EtherFrame f = co_await ether.rxQueue(2, 600).recv();
        EXPECT_EQ(f.src, 0);
        EXPECT_EQ(f.srcPort, 500);
        EXPECT_EQ(f.data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
        got = true;
    }(ether, got));
    machine_.sim().runAll();
    EXPECT_TRUE(got);
    // Ethernet is slow: on the order of the configured latency.
    EXPECT_GE(machine_.sim().now(), machine_.config().etherLatency);
}

TEST_F(NodeTest, EtherPreservesOrderOnOneSegment)
{
    EtherNet &ether = machine_.ether();
    for (std::uint8_t i = 0; i < 10; ++i)
        ether.send(0, 1, 1, 700, {i});
    std::vector<std::uint8_t> got;
    machine_.sim().spawn([](EtherNet &ether,
                            std::vector<std::uint8_t> &got) -> sim::Task<> {
        for (int i = 0; i < 10; ++i) {
            EtherFrame f = co_await ether.rxQueue(1, 700).recv();
            got.push_back(f.data[0]);
        }
    }(ether, got));
    machine_.sim().runAll();
    for (std::uint8_t i = 0; i < 10; ++i)
        EXPECT_EQ(got[i], i);
}

TEST_F(NodeTest, EtherAllocPortIsUniquePerNode)
{
    EtherNet &ether = machine_.ether();
    auto a = ether.allocPort(0);
    auto b = ether.allocPort(0);
    auto c = ether.allocPort(1);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, c); // independent namespaces per node
}

TEST_F(NodeTest, EtherAllocPortWrapsPastReservedAndLivePorts)
{
    // 70,000 one-shot request cycles on one node (allocate a port, take
    // the reply on it, which releases it) wrap the 64,512-port ephemeral
    // range. No cycle may get a reserved port (< 1024) or a port whose
    // queue is live: the listeners', or a reply still pending.
    EtherNet &ether = machine_.ether();
    const std::set<std::uint16_t> listeners{1024 + 7, 5000, 65535};
    for (std::uint16_t port : listeners)
        (void)ether.rxQueue(0, port);
    const std::size_t live0 = ether.liveQueues();
    std::set<std::uint16_t> used;
    int bad = 0;
    test::runTask(machine_.sim(), [](EtherNet &ether,
                                     const std::set<std::uint16_t> &listeners,
                                     std::set<std::uint16_t> &used,
                                     int &bad) -> sim::Task<> {
        std::uint16_t pending = ether.allocPort(0); // held across the loop
        (void)ether.rxQueue(0, pending);
        for (int i = 0; i < 70'000; ++i) {
            std::uint16_t port = ether.allocPort(0);
            if (port < 1024 || listeners.contains(port) || port == pending)
                ++bad;
            used.insert(port);
            ether.send(1, 9, 0, port, {std::uint8_t(i)});
            EtherFrame f = co_await ether.recvOnce(0, port);
            if (f.data != std::vector<std::uint8_t>{std::uint8_t(i)})
                ++bad;
        }
        ether.send(1, 9, 0, pending, {0});
        (void)co_await ether.recvOnce(0, pending);
    }(ether, listeners, used, bad));
    EXPECT_EQ(bad, 0);
    // Every free ephemeral port was handed out: the counter wrapped.
    EXPECT_EQ(used.size(), 65536u - 1024u - listeners.size() - 1u);
    EXPECT_EQ(ether.liveQueues(), live0);
}

TEST_F(NodeTest, EtherAllocPortIsFatalOnlyOnAFullNode)
{
    // Every ephemeral port of node 0 has a live queue: allocation there
    // is fatal, while node 1's port space is untouched.
    EtherNet &ether = machine_.ether();
    for (unsigned port = 1024; port <= 0xffffu; ++port)
        (void)ether.rxQueue(0, std::uint16_t(port));
    EXPECT_THROW((void)ether.allocPort(0), FatalError);
    EXPECT_GE(ether.allocPort(1), 1024u);
}

TEST_F(NodeTest, ProcessesGetDistinctPids)
{
    Process &a = machine_.spawnProcess(2);
    Process &b = machine_.spawnProcess(2);
    EXPECT_NE(a.pid(), b.pid());
    EXPECT_EQ(machine_.node(2).numProcesses(), 2u);
}

TEST(MachineConfigs, SixteenNodeMeshBuilds)
{
    MachineConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.nodeMemBytes = 2 * units::MiB;
    Machine m(cfg);
    EXPECT_EQ(m.numNodes(), 16);
    EXPECT_EQ(m.mesh().hops(0, 15), 6);
}

TEST(MachineConfigs, InvalidConfigRejectedAtConstruction)
{
    MachineConfig cfg;
    cfg.pageBytes = 1000;
    EXPECT_THROW(Machine m(cfg), FatalError);
}

} // namespace
} // namespace shrimp::node

namespace shrimp::node
{
namespace
{

TEST(MachineStats, DumpReflectsTrafficAndBalances)
{
    // Drive a little traffic directly through a NIC pair and check the
    // stats dump: every injected packet is delivered somewhere, bytes
    // on the wire equal bytes received, and the report parses as
    // "name value" lines.
    Machine m;
    Process &a = m.spawnProcess(0);
    Process &b = m.spawnProcess(1);
    auto &nic0 = m.node(0).nic();
    auto &nic1 = m.node(1).nic();

    // Enable a landing page on node 1 and bind an AU page on node 0.
    VAddr dst = b.alloc(4096);
    PAddr dst_pa = b.as().translate(dst);
    nic1.ipt().setEnabled(dst_pa / 4096, true);
    VAddr src = a.alloc(4096);
    PAddr src_pa = a.as().translate(src);
    nic::OptEntry e;
    e.valid = true;
    e.destNode = 1;
    e.destBase = dst_pa;
    e.len = 4096;
    nic0.opt().bindPage(src_pa / 4096, e);

    m.sim().spawn([](Process &a, VAddr src) -> sim::Task<> {
        std::vector<std::uint8_t> data(2040, 0x3C);
        co_await a.write(src, data.data(), data.size());
        // Two consecutive word stores: the NIC combines them.
        co_await a.store32(VAddr(src + 2040), 0x3C3C3C3C);
        co_await a.store32(VAddr(src + 2044), 0x3C3C3C3C);
    }(a, src));
    m.sim().spawn([](Process &b, VAddr dst) -> sim::Task<> {
        co_await b.waitWord32Ne(VAddr(dst + 2044), 0);
    }(b, dst));
    m.sim().runAll();

    std::ostringstream os;
    m.dumpStats(os);
    std::map<std::string, std::uint64_t> stats;
    std::istringstream is(os.str());
    std::string name;
    std::uint64_t value;
    while (is >> name >> value)
        stats[name] = value;

    EXPECT_GT(stats["mesh.packetsDelivered"], 0u);
    EXPECT_EQ(stats["node0.nic.packetsInjected"],
              stats["node1.nic.packetsDelivered"]);
    EXPECT_EQ(stats["node1.nic.bytesDelivered"], 2048u);
    EXPECT_GT(stats["node0.nic.writesCombined"], 0u);
    EXPECT_EQ(stats["node1.nic.packetsDropped"], 0u);
    EXPECT_GT(stats["node1.eisa.bytes"], 0u);
    EXPECT_GT(stats["node0.cpu.busyNs"], 0u);
}

TEST(MachineStats, ZeroPoolReusesMappingsAcrossMachineLifetimes)
{
    // Park an 8x8 machine's 64 node memories (512 MB of mappings, each
    // with a few pages written) in the process-wide pool, then build the
    // same machine again: every memory of the second lifetime must be
    // served from the pool, none from a fresh mapping.
    MachineConfig cfg;
    cfg.meshWidth = 8;
    cfg.meshHeight = 8;
    {
        Machine park(cfg);
        for (NodeId i = 0; i < NodeId(park.numNodes()); ++i) {
            mem::Memory &memory = park.node(i).memory();
            memory.write32(PAddr(i) * PAddr(memory.pageBytes()), i + 1);
            memory.write32(PAddr(memory.size() - 4), i + 1);
        }
    }
    const std::size_t reuse0 = mem::ZeroRegion::poolReuseCount();
    const std::size_t fresh0 = mem::ZeroRegion::poolFreshCount();

    Machine m(cfg);
    EXPECT_EQ(mem::ZeroRegion::poolReuseCount(), reuse0 + 64)
        << "back-to-back machine lifetimes did not reuse every parked "
           "mapping";
    EXPECT_EQ(mem::ZeroRegion::poolFreshCount(), fresh0)
        << "an identically-sized region was allocated fresh despite "
           "the pool";
    for (NodeId i = 0; i < NodeId(m.numNodes()); ++i) {
        mem::Memory &memory = m.node(i).memory();
        EXPECT_EQ(memory.read32(PAddr(i) * PAddr(memory.pageBytes())), 0u);
        EXPECT_EQ(memory.read32(PAddr(memory.size() - 4)), 0u);
    }

    // The counters surface in every stats dump.
    std::ostringstream os;
    m.dumpStats(os);
    std::map<std::string, std::uint64_t> stats;
    std::istringstream is(os.str());
    std::string name;
    std::uint64_t value;
    while (is >> name >> value)
        stats[name] = value;
    EXPECT_GT(stats["mem.zeropool.reuse"], 0u);
    EXPECT_EQ(stats.count("mem.zeropool.fresh"), 1u);
    EXPECT_EQ(stats.count("mem.zeropool.bytesRezeroed"), 1u);
}

} // namespace
} // namespace shrimp::node
