/**
 * @file
 * Unit tests for the simulation core: event queue determinism, the
 * coroutine Task type, synchronization primitives, the occupancy ledger
 * behind the CPU and the Bus, and the Bus resource.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "base/config.hh"
#include "base/logging.hh"
#include "node/cpu.hh"
#include "sim/bus.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace shrimp::sim
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(300, [&] { order.push_back(3); });
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(200, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 300u);
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(50, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        ++fired;
        q.scheduleIn(5, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_THROW(q.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, PastSchedulePanicNamesBothTicks)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    try {
        q.schedule(50, [] {});
        FAIL() << "expected a panic";
    } catch (const PanicError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("when=50"), std::string::npos) << msg;
        EXPECT_NE(msg.find("now=100"), std::string::npos) << msg;
    }
}

TEST(EventQueue, EventLimitGuardsPanic)
{
    EventQueue q;
    std::function<void()> again = [&] { q.scheduleIn(1, again); };
    q.scheduleIn(1, again);
    EXPECT_THROW(q.run(1000), PanicError);
}

Task<int>
answer(Simulator &s)
{
    co_await Delay{s.queue(), 10};
    co_return 42;
}

TEST(Task, ReturnsValueAfterDelay)
{
    Simulator s;
    int got = 0;
    s.spawn([](Simulator &s, int &got) -> Task<> {
        got = co_await answer(s);
    }(s, got));
    s.runAll();
    EXPECT_EQ(got, 42);
    EXPECT_EQ(s.now(), 10u);
}

TEST(Task, IsLazyUntilAwaited)
{
    Simulator s;
    bool ran = false;
    auto lazy = [](bool &ran) -> Task<> {
        ran = true;
        co_return;
    }(ran);
    EXPECT_FALSE(ran);
    s.spawn(std::move(lazy));
    EXPECT_TRUE(ran); // spawn starts it immediately
}

TEST(Task, ExceptionsPropagateThroughAwait)
{
    Simulator s;
    s.spawn([]() -> Task<> {
        auto thrower = []() -> Task<int> {
            panic("inner failure");
            co_return 0;
        };
        co_await thrower();
    }());
    EXPECT_THROW(s.runAll(), PanicError);
}

TEST(Task, ChainedTasksAccumulateTime)
{
    Simulator s;
    s.spawn([](Simulator &s) -> Task<> {
        for (int i = 0; i < 5; ++i)
            co_await answer(s);
        EXPECT_EQ(s.now(), 50u);
    }(s));
    s.runAll();
}

TEST(Simulator, ActiveTaskCountTracksCompletion)
{
    Simulator s;
    s.spawn([](Simulator &s) -> Task<> {
        co_await Delay{s.queue(), 5};
    }(s));
    EXPECT_EQ(s.activeTasks(), 1u);
    s.runAll();
    EXPECT_EQ(s.activeTasks(), 0u);
}

TEST(Simulator, DeadlockDetected)
{
    Simulator s;
    Condition never(s.queue());
    s.spawn([](Condition &c) -> Task<> { co_await c.wait(); }(never));
    EXPECT_THROW(s.runAll(), PanicError);
}

TEST(Simulator, DestructionReclaimsParkedTasksOnceInSpawnOrder)
{
    // Each task parks forever holding a guard that logs its id when the
    // frame is destroyed: ~Simulator must reclaim every frame exactly
    // once, the oldest spawn first.
    struct Guard
    {
        std::vector<int> &log;
        int id;
        ~Guard() { log.push_back(id); }
    };
    std::vector<int> log;
    {
        Simulator s;
        for (int id : {7, 3, 5}) {
            s.spawn([](std::vector<int> &log, int id) -> Task<> {
                Guard g{log, id};
                co_await std::suspend_always{};
            }(log, id));
        }
        EXPECT_EQ(s.activeTasks(), 3u);
        EXPECT_TRUE(log.empty());
    }
    EXPECT_EQ(log, (std::vector<int>{7, 3, 5}));
}

TEST(Simulator, BlockedDaemonIsNotADeadlock)
{
    Simulator s;
    auto ch = std::make_unique<Channel<int>>(s.queue());
    s.spawnDaemon([](Channel<int> &ch) -> Task<> {
        for (;;)
            co_await ch.recv();
    }(*ch));
    EXPECT_NO_THROW(s.runAll());
}

TEST(Simulator, DaemonExceptionsRethrownFromRun)
{
    Simulator s;
    s.spawnDaemon([](Simulator &s) -> Task<> {
        co_await Delay{s.queue(), 5};
        panic("daemon died");
    }(s));
    EXPECT_THROW(s.runAll(), PanicError);
}

TEST(Condition, WakesAllCurrentWaiters)
{
    Simulator s;
    Condition c(s.queue());
    int woke = 0;
    for (int i = 0; i < 3; ++i) {
        s.spawn([](Condition &c, int &woke) -> Task<> {
            co_await c.wait();
            ++woke;
        }(c, woke));
    }
    s.queue().scheduleIn(10, [&] { c.notifyAll(); });
    s.runAll();
    EXPECT_EQ(woke, 3);
}

TEST(Condition, NotifyDoesNotWakeFutureWaiters)
{
    Simulator s;
    Condition c(s.queue());
    bool late_woke = false;
    c.notifyAll(); // no waiters yet: no effect
    s.spawn([](Condition &c, bool &late_woke) -> Task<> {
        co_await c.wait();
        late_woke = true;
    }(c, late_woke));
    EXPECT_THROW(s.runAll(), PanicError); // deadlocked: missed notify
    EXPECT_FALSE(late_woke);
}

// ---- the occupancy ledger and its frame-free awaiters -------------------

TEST(Ledger, ContendingCpuUsesAreGrantedInFifoOrder)
{
    Simulator s;
    MachineConfig cfg;
    node::Cpu cpu(s.queue(), cfg, "ledger_cpu");
    std::vector<std::pair<int, Tick>> done;
    for (int i = 0; i < 3; ++i) {
        s.spawn([](Simulator &s, node::Cpu &cpu,
                   std::vector<std::pair<int, Tick>> &done,
                   int i) -> Task<> {
            co_await cpu.use(Tick(100 * (i + 1)));
            done.push_back({i, s.now()});
        }(s, cpu, done, i));
    }
    s.runAll();
    // Claims in spawn order, each held for its own span: 0 holds
    // [0, 100), 1 [100, 300), 2 [300, 600).
    EXPECT_EQ(done, (std::vector<std::pair<int, Tick>>{
                        {0, 100}, {1, 300}, {2, 600}}));
    EXPECT_EQ(cpu.busyTime(), 600u);
    EXPECT_EQ(cpu.stats().get("uses"), 3u);
}

TEST(Ledger, ContendingBusTransfersAreGrantedInFifoOrder)
{
    Simulator s;
    Bus bus(s.queue(), 100.0, "ledger_bus"); // 10 ns/byte
    std::vector<std::pair<int, Tick>> done;
    for (int i = 0; i < 3; ++i) {
        s.spawn([](Simulator &s, Bus &bus,
                   std::vector<std::pair<int, Tick>> &done,
                   int i) -> Task<> {
            co_await bus.transfer(std::size_t(100 * (3 - i)), 5);
            done.push_back({i, s.now()});
        }(s, bus, done, i));
    }
    s.runAll();
    // 3005, 2005 and 1005 ns back to back, in claim order.
    EXPECT_EQ(done, (std::vector<std::pair<int, Tick>>{
                        {0, 3005}, {1, 5010}, {2, 6015}}));
    EXPECT_EQ(bus.busyTime(), 6015u);
    EXPECT_EQ(bus.transactions(), 3u);
    EXPECT_EQ(bus.bytesMoved(), 600u);
}

TEST(Ledger, ContendedHandoffRunsAfterEventsQueuedForTheSameTick)
{
    EventQueue q;
    Ledger ledger(q);
    std::vector<std::string> log;
    struct Claim : Ledger::Waiter
    {
        std::vector<std::string> *log;
        EventQueue *q;
    };
    Claim first{{[](Ledger::Waiter &) {}}, &log, &q};
    Claim second{{[](Ledger::Waiter &w) {
                     auto &c = static_cast<Claim &>(w);
                     c.log->push_back("granted@" +
                                      std::to_string(c.q->now()));
                 }},
                 &log, &q};
    ASSERT_TRUE(ledger.claim(first)); // idle: held at once
    EXPECT_FALSE(ledger.claim(second)); // busy: parked
    q.schedule(100, [&] {
        log.push_back("release");
        ledger.release();
        // The holder's continuation: anything it schedules now comes
        // after the handoff.
        q.scheduleIn(0, [&] { log.push_back("continuation"); });
    });
    q.schedule(100, [&] { log.push_back("queued"); });
    q.run();
    EXPECT_EQ(log, (std::vector<std::string>{
                       "release", "queued", "granted@100", "continuation"}));
    ledger.release(); // the second claim's: no waiter, so idle again
    EXPECT_TRUE(ledger.claim(first));
}

TEST(Channel, DeliversInFifoOrder)
{
    Simulator s;
    Channel<int> ch(s.queue());
    std::vector<int> got;
    s.spawn([](Channel<int> &ch, std::vector<int> &got) -> Task<> {
        for (int i = 0; i < 5; ++i)
            got.push_back(co_await ch.recv());
    }(ch, got));
    for (int i = 0; i < 5; ++i)
        ch.send(i);
    s.runAll();
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, RecvBlocksUntilSend)
{
    Simulator s;
    Channel<int> ch(s.queue());
    Tick when = 0;
    s.spawn([](Simulator &s, Channel<int> &ch, Tick &when) -> Task<> {
        int v = co_await ch.recv();
        EXPECT_EQ(v, 9);
        when = s.now();
    }(s, ch, when));
    s.queue().scheduleIn(777, [&] { ch.send(9); });
    s.runAll();
    EXPECT_EQ(when, 777u);
}

TEST(Channel, TwoWaitingReceiversEachGetOneItemOldestFirst)
{
    Simulator s;
    Channel<int> ch(s.queue());
    std::vector<std::tuple<int, int, Tick>> got; // receiver, item, tick
    for (int r = 0; r < 2; ++r) {
        s.spawn([](Simulator &s, Channel<int> &ch,
                   std::vector<std::tuple<int, int, Tick>> &got,
                   int r) -> Task<> {
            int v = co_await ch.recv();
            got.push_back({r, v, s.now()});
        }(s, ch, got, r));
    }
    s.queue().scheduleIn(10, [&] { ch.send(7); });
    s.queue().scheduleIn(20, [&] { ch.send(8); });
    s.runAll();
    // One send wakes one receiver, the one that waited longest.
    EXPECT_EQ(got, (std::vector<std::tuple<int, int, Tick>>{
                       {0, 7, 10}, {1, 8, 20}}));
    EXPECT_TRUE(ch.empty());
}

TEST(Bus, TransferTakesSetupPlusSerialization)
{
    Simulator s;
    Bus bus(s.queue(), 10.0, "b"); // 10 MB/s => 100 ns/byte
    s.spawn([](Simulator &s, Bus &bus) -> Task<> {
        co_await bus.transfer(100, 50);
        EXPECT_EQ(s.now(), 50u + 100u * 100u);
    }(s, bus));
    s.runAll();
    EXPECT_EQ(bus.bytesMoved(), 100u);
    EXPECT_EQ(bus.transactions(), 1u);
}

TEST(Bus, ContendingTransfersSerialize)
{
    Simulator s;
    Bus bus(s.queue(), 100.0, "b"); // 10 ns/byte
    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i) {
        s.spawn([](Simulator &s, Bus &bus, std::vector<Tick> &done)
                    -> Task<> {
            co_await bus.transfer(100);
            done.push_back(s.now());
        }(s, bus, done));
    }
    s.runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], 1000u);
    EXPECT_EQ(done[1], 2000u);
    EXPECT_EQ(done[2], 3000u);
    EXPECT_EQ(bus.busyTime(), 3000u);
}

TEST(Bus, RejectsNonPositiveBandwidth)
{
    Simulator s;
    EXPECT_THROW(Bus(s.queue(), 0.0, "z"), FatalError);
}

TEST(Bus, OccupancyMatchesObservedTime)
{
    Simulator s;
    Bus bus(s.queue(), 25.0, "b");
    Tick expect = bus.occupancy(4096, 1500);
    s.spawn([](Simulator &s, Bus &bus, Tick expect) -> Task<> {
        Tick t0 = s.now();
        co_await bus.transfer(4096, 1500);
        EXPECT_EQ(s.now() - t0, expect);
    }(s, bus, expect));
    s.runAll();
}

} // namespace
} // namespace shrimp::sim

namespace shrimp::sim
{
namespace
{

TEST(TaskSemantics, MoveTransfersOwnership)
{
    Simulator s;
    auto make = [](Simulator &s) -> Task<int> {
        co_await Delay{s.queue(), 5};
        co_return 9;
    };
    Task<int> a = make(s);
    EXPECT_TRUE(a.valid());
    Task<int> b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    int got = 0;
    s.spawn([](Task<int> t, int &got) -> Task<> {
        got = co_await std::move(t);
    }(std::move(b), got));
    s.runAll();
    EXPECT_EQ(got, 9);
}

TEST(TaskSemantics, UnawaitedTaskNeverRuns)
{
    bool ran = false;
    {
        auto t = [](bool &ran) -> Task<> {
            ran = true;
            co_return;
        }(ran);
        // dropped without being awaited or spawned
    }
    EXPECT_FALSE(ran);
}

TEST(TaskSemantics, StartedDaemonErrorIsInspectable)
{
    Simulator s;
    auto t = []() -> Task<> {
        panic("stored not thrown");
        co_return;
    }();
    t.start(); // runs to completion, exception stored in the promise
    EXPECT_TRUE(t.done());
    EXPECT_NE(t.error(), nullptr);
}

TEST(TaskSemantics, MoveAssignReleasesOldFrame)
{
    auto mk = [](int v) -> Task<int> { co_return v; };
    Task<int> a = mk(1);
    Task<int> b = mk(2);
    a = std::move(b); // old frame of a destroyed; a now holds b's
    EXPECT_TRUE(a.valid());
    EXPECT_FALSE(b.valid());
}

// ---- event-core fast path (radix heap + node pool) ---------------------

TEST(EventQueueCore, LogUniformDelaysPopInExactOrder)
{
    EventQueue q;
    // Delays drawn log-uniformly over bit widths 0-40 reach every bucket
    // up to 41; a third of the callbacks schedule zero- and short-delay
    // follow-ups from inside dispatch, against a base that has moved.
    // Pops must follow (when, schedule index) exactly.
    std::vector<std::pair<Tick, int>> scheduled;
    std::vector<std::pair<Tick, int>> fired;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    auto draw = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 33;
    };
    auto logDelay = [&draw] {
        const int width = int(draw() % 41);
        if (width == 0)
            return Tick(0);
        const Tick top = Tick(1) << (width - 1);
        const Tick low = (Tick(draw()) << 31) | Tick(draw());
        return top | (low & (top - 1));
    };
    std::function<void(Tick)> add = [&](Tick when) {
        const int i = int(scheduled.size());
        scheduled.push_back({when, i});
        q.schedule(when, [&, when, i] {
            fired.push_back({when, i});
            if (i % 3 == 0 && scheduled.size() < 6000) {
                add(q.now());
                add(q.now() + Tick(1 + draw() % 16));
            }
        });
    };
    for (int i = 0; i < 2000; ++i)
        add(logDelay());
    q.run();
    ASSERT_GT(scheduled.size(), 3000u);
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, scheduled);
    EXPECT_EQ(q.now(), scheduled.back().first);
}

TEST(EventQueueCore, EqualTicksAcrossARebasePopInScheduleOrder)
{
    EventQueue q;
    // 600 and 1000 first differ from now=0 at the same bit, so popping
    // 600 re-files the 1000s against the new base; the 1000s scheduled
    // from inside that dispatch must still pop after them.
    std::vector<int> order;
    q.schedule(1000, [&] { order.push_back(0); });
    q.schedule(600, [&] {
        order.push_back(-1);
        q.schedule(1000, [&] { order.push_back(2); });
        q.schedule(1000, [&] { order.push_back(3); });
    });
    q.schedule(1000, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueueCore, TopBitEventPopsLast)
{
    EventQueue q;
    // maxTick and 2^63 differ from now=0 in bit 63 (the top bucket);
    // 2^63 - 1 differs first in bit 62.
    const Tick top = Tick(1) << 63;
    std::vector<Tick> fired;
    auto record = [&] { fired.push_back(q.now()); };
    q.schedule(maxTick, record);
    q.schedule(top - 1, record);
    q.schedule(3, record);
    q.schedule(top, record);
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{3, top - 1, top, maxTick}));
}

TEST(EventQueueCore, SteadyStateSchedulingReusesPooledNodes)
{
    EventQueue q;
    int fired = 0;
    std::uint64_t after_first = 0;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 1000; ++i)
            q.scheduleIn(Tick(1 + i % 7), [&fired] { ++fired; });
        q.run();
        if (round == 0)
            after_first = q.nodesAllocated();
        else
            EXPECT_EQ(q.nodesAllocated(), after_first)
                << "round " << round << " grew the node pool";
    }
    EXPECT_EQ(fired, 5000);
    EXPECT_EQ(q.heapCallables(), 0u); // small captures stay inline
}

TEST(EventQueueCore, OversizedCallableFallsBackToHeapAndCounts)
{
    EventQueue q;
    std::array<std::uint64_t, 16> big{}; // 128 bytes > inline 48
    big[15] = 7;
    std::uint64_t got = 0;
    q.schedule(1, [big, &got] { got = big[15]; });
    EXPECT_EQ(q.heapCallables(), 1u);
    q.run();
    EXPECT_EQ(got, 7u);
}

// ---- in-place advance (EventQueue::tryAdvance) -------------------------

TEST(EventQueueAdvance, HoldChainOnAnEmptyQueueRunsInPlace)
{
    Simulator s;
    MachineConfig cfg;
    node::Cpu cpu(s.queue(), cfg, "advance_cpu");
    Bus bus(s.queue(), 100.0, "advance_bus"); // 10 ns/byte
    Tick ended = 0;
    s.spawn([](Simulator &s, node::Cpu &cpu, Bus &bus,
               Tick &ended) -> Task<> {
        for (Tick t : {100, 7, 250, 1})
            co_await cpu.use(t);
        co_await bus.transfer(30, 2);
        ended = s.now();
    }(s, cpu, bus, ended));
    // One event per hold, though only the first is scheduled: the
    // spawn runs the task eagerly, and the other four holds run in
    // place once its end event resumes the task.
    EXPECT_EQ(s.run(), 5u);
    EXPECT_EQ(s.queue().advancedInPlace(), 4u);
    EXPECT_EQ(ended, 660u);
    EXPECT_EQ(s.now(), 660u);
    EXPECT_EQ(cpu.busyTime(), 358u);
    EXPECT_EQ(cpu.stats().get("uses"), 4u);
    EXPECT_EQ(bus.busyTime(), 302u);
    EXPECT_EQ(bus.transactions(), 1u);
}

TEST(EventQueueAdvance, HoldEndingAtAPendingEventsTickIsScheduled)
{
    Simulator s;
    MachineConfig cfg;
    node::Cpu cpu(s.queue(), cfg, "advance_tie_cpu");
    std::vector<std::string> log;
    s.queue().schedule(150, [&] {
        log.push_back("pending@" + std::to_string(s.now()));
    });
    s.spawn([](Simulator &s, node::Cpu &cpu,
               std::vector<std::string> &log) -> Task<> {
        co_await Delay{s.queue(), 100};
        // In tail position now, but the hold ends at 150, where an
        // event scheduled earlier must run first.
        co_await cpu.use(50);
        log.push_back("hold@" + std::to_string(s.now()));
    }(s, cpu, log));
    s.runAll();
    EXPECT_EQ(log, (std::vector<std::string>{"pending@150", "hold@150"}));
    EXPECT_EQ(s.queue().advancedInPlace(), 0u);
}

TEST(EventQueueAdvance, AdvanceAcrossTheLowestBucketsBitRefilesIt)
{
    Simulator s;
    EventQueue &q = s.queue();
    std::vector<std::pair<Tick, int>> scheduled;
    std::vector<std::pair<Tick, int>> fired;
    std::function<void(Tick)> add = [&](Tick when) {
        const int i = int(scheduled.size());
        scheduled.push_back({when, i});
        q.schedule(when, [&fired, &q, i] { fired.push_back({q.now(), i}); });
    };
    // From now=2, 12 and 13 first differ at bit 3: both sit in bucket 4.
    add(12);
    add(13);
    s.spawn([](EventQueue &q, std::function<void(Tick)> &add) -> Task<> {
        co_await Delay{q, 2};
        // 2 -> 10 sets bit 3, so 12 and 13 move to bucket 3. Left in
        // bucket 4, they would pop after the 14 filed below.
        co_await Delay{q, 8};
        EXPECT_EQ(q.now(), 10u);
        for (Tick when : {14, 12, 11, 13, 10})
            add(when);
    }(q, add));
    s.runAll();
    EXPECT_EQ(q.advancedInPlace(), 1u);
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, scheduled);
}

TEST(EventQueueAdvance, SpawnedTaskDoesNotMoveItsSpawnersTime)
{
    Simulator s;
    std::vector<Tick> seen; // spawner before, after spawn, after daemon
    Tick child = 0, daemon = 0;
    auto sleeper = [](Simulator &s, Tick span, Tick &woke) -> Task<> {
        co_await Delay{s.queue(), span};
        woke = s.now();
    };
    s.spawn([](Simulator &s, std::vector<Tick> &seen, Task<> child,
               Task<> daemon) -> Task<> {
        co_await Delay{s.queue(), 5}; // resumed in tail position
        seen.push_back(s.now());
        s.spawn(std::move(child));
        seen.push_back(s.now());
        s.spawnDaemon(std::move(daemon));
        seen.push_back(s.now());
    }(s, seen, sleeper(s, 20, child), sleeper(s, 10, daemon)));
    s.runAll();
    EXPECT_EQ(seen, (std::vector<Tick>{5, 5, 5}));
    EXPECT_EQ(child, 25u);
    EXPECT_EQ(daemon, 15u);
}

TEST(EventQueueAdvance, EndlessDelayLoopStillHitsTheEventLimit)
{
    Simulator s;
    // Bounded only so that a broken budget fails instead of hanging.
    s.spawn([](EventQueue &q) -> Task<> {
        for (int i = 0; i < 100'000; ++i)
            co_await Delay{q, 10};
    }(s.queue()));
    try {
        s.run(1000);
        FAIL() << "expected a panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("event limit exceeded"),
                  std::string::npos)
            << e.what();
    }
    // As with every wake-up scheduled: the panic follows event 1001.
    EXPECT_EQ(s.now(), 10'010u);
}

// ---- cancellation (EventQueue::cancel) --------------------------------

/** A callable that counts its runs and the destruction of its one live
 *  copy; @p Pad bytes push it past the node's inline buffer. */
template <std::size_t Pad>
struct Counted
{
    int *runs;
    int *destroyed;
    bool live = true;
    std::array<char, Pad> pad{};

    Counted(int *r, int *d) : runs(r), destroyed(d) {}
    Counted(Counted &&o) noexcept
        : runs(o.runs), destroyed(o.destroyed),
          live(std::exchange(o.live, false))
    {}
    ~Counted()
    {
        if (live)
            ++*destroyed;
    }
    void operator()() { ++*runs; }
};

TEST(EventQueueCancel, HeadMiddleOrTailOfABucketLeavesTheRestInOrder)
{
    // Three events in one bucket: bucket 0 (all at now()), or bucket 7
    // (100-102 from now=0, 100 its minimum). Whichever is cancelled,
    // the other two run in order, and an event filed afterwards still
    // lands behind them, so the bucket's tail is right too.
    for (Tick base : {Tick(0), Tick(100)}) {
        const Tick step = base == 0 ? 0 : 1;
        for (int victim = 0; victim < 3; ++victim) {
            EventQueue q;
            std::vector<int> ran;
            std::vector<EventQueue::Handle> h;
            for (int i = 0; i < 3; ++i)
                h.push_back(q.schedule(base + step * Tick(i),
                                       [&ran, i] { ran.push_back(i); }));
            q.cancel(h[victim]);
            EXPECT_EQ(q.pending(), 2u);
            q.schedule(base + 2 * step, [&ran] { ran.push_back(3); });
            EXPECT_EQ(q.run(), 3u);
            std::vector<int> want;
            for (int i = 0; i < 4; ++i) {
                if (i != victim)
                    want.push_back(i);
            }
            EXPECT_EQ(ran, want) << "base " << base << ", cancelled "
                                 << victim;
        }
    }
}

TEST(EventQueueCancel, CancelsKeepTheRestInExactOrder)
{
    EventQueue q;
    // As LogUniformDelaysPopInExactOrder, but dispatches cancel: every
    // third cancels the earliest pending event (the lowest bucket's
    // minimum, or the next of bucket 0), every third + 1 the latest
    // scheduled one still pending. The survivors must pop in (when,
    // schedule index) order.
    std::vector<std::pair<Tick, int>> scheduled;
    std::vector<std::pair<Tick, int>> fired;
    std::vector<EventQueue::Handle> handles;
    std::set<std::pair<Tick, int>> pending;
    std::set<int> cancelled;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto draw = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 33;
    };
    auto logDelay = [&draw] {
        const int width = int(draw() % 41);
        if (width == 0)
            return Tick(0);
        const Tick top = Tick(1) << (width - 1);
        const Tick low = (Tick(draw()) << 31) | Tick(draw());
        return top | (low & (top - 1));
    };
    auto cancel = [&](std::pair<Tick, int> victim) {
        q.cancel(handles[std::size_t(victim.second)]);
        pending.erase(victim);
        cancelled.insert(victim.second);
    };
    std::function<void(Tick)> add = [&](Tick when) {
        const int i = int(scheduled.size());
        scheduled.push_back({when, i});
        pending.insert({when, i});
        handles.push_back(q.schedule(when, [&, when, i] {
            fired.push_back({when, i});
            pending.erase({when, i});
            if (pending.empty() || scheduled.size() >= 6000)
                return;
            if (i % 3 == 0) {
                cancel(*pending.begin());
                add(q.now());
                add(q.now() + Tick(1 + draw() % 16));
            } else if (i % 3 == 1) {
                auto latest = std::max_element(
                    pending.begin(), pending.end(),
                    [](const auto &a, const auto &b) {
                        return a.second < b.second;
                    });
                cancel(*latest);
                add(q.now() + logDelay());
            }
        }));
    };
    for (int i = 0; i < 2000; ++i)
        add(logDelay());
    const std::uint64_t ran = q.run();
    ASSERT_GT(cancelled.size(), 500u);
    EXPECT_EQ(ran, scheduled.size() - cancelled.size());
    std::vector<std::pair<Tick, int>> want;
    for (const auto &e : scheduled) {
        if (cancelled.count(e.second) == 0)
            want.push_back(e);
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, want);
}

TEST(EventQueueCancel, CancelledMinimumNoLongerBlocksAnAdvance)
{
    Simulator s;
    MachineConfig cfg;
    node::Cpu cpu(s.queue(), cfg, "cancel_cpu");
    std::vector<std::string> log;
    // From now=0, 150 and 250 share bucket 8, and 150 is its minimum.
    // Cancelled, it must not keep the hold below from running in place
    // across its tick.
    EventQueue::Handle stale =
        s.queue().schedule(150, [&] { log.push_back("stale"); });
    s.queue().schedule(250, [&] {
        log.push_back("pending@" + std::to_string(s.now()));
    });
    s.queue().cancel(stale);
    s.spawn([](Simulator &s, node::Cpu &cpu,
               std::vector<std::string> &log) -> Task<> {
        co_await Delay{s.queue(), 100};
        co_await cpu.use(100); // in tail position, ends at 200
        log.push_back("hold@" + std::to_string(s.now()));
    }(s, cpu, log));
    EXPECT_EQ(s.run(), 3u); // the delay, the hold in place, the 250
    EXPECT_EQ(s.queue().advancedInPlace(), 1u);
    EXPECT_EQ(log, (std::vector<std::string>{"hold@200", "pending@250"}));
}

TEST(EventQueueCancel, CancelledCallableIsDestroyedOnceAndNeverRuns)
{
    int runs = 0, destroyed = 0;
    EventQueue q;
    EventQueue::Handle inl = q.schedule(10, Counted<0>(&runs, &destroyed));
    EventQueue::Handle heap =
        q.schedule(10, Counted<64>(&runs, &destroyed));
    q.schedule(20, Counted<0>(&runs, &destroyed));
    EXPECT_EQ(q.heapCallables(), 1u);
    EXPECT_EQ(destroyed, 0);
    q.cancel(inl);
    q.cancel(heap);
    EXPECT_EQ(destroyed, 2);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 3);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueueCancel, DestructionAfterCancelsDestroysEachCallableOnce)
{
    int runs = 0, destroyed = 0;
    {
        EventQueue q;
        std::vector<EventQueue::Handle> h;
        for (int i = 0; i < 4; ++i) {
            h.push_back(
                q.schedule(Tick(5 * i), Counted<0>(&runs, &destroyed)));
            h.push_back(
                q.schedule(Tick(5 * i), Counted<64>(&runs, &destroyed)));
        }
        q.cancel(h[1]);
        q.cancel(h[6]);
        EXPECT_EQ(destroyed, 2);
    } // ~EventQueue destroys the six that never ran
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(destroyed, 8);
}

TEST(EventQueueCancel, CancellingAnEventThatIsNotPendingPanics)
{
    EventQueue q;
    int ran = 0;
    EventQueue::Handle first = q.schedule(1, [&ran] { ++ran; });
    EXPECT_EQ(q.run(), 1u);
    try {
        q.cancel(first); // its node is free now
        FAIL() << "expected a panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("not pending"),
                  std::string::npos)
            << e.what();
    }
    // The free node goes to the next event; the stale handle must not
    // unlink it.
    q.schedule(2, [&ran] { ++ran; });
    EXPECT_THROW(q.cancel(first), PanicError);
    EXPECT_THROW(q.cancel(EventQueue::Handle{}), PanicError);
    // An event is not pending while it runs either.
    EventQueue::Handle self;
    bool panicked = false;
    self = q.schedule(3, [&] {
        try {
            q.cancel(self);
        } catch (const PanicError &) {
            panicked = true;
        }
    });
    EXPECT_EQ(q.run(), 2u);
    EXPECT_EQ(ran, 2);
    EXPECT_TRUE(panicked);
}

TEST(FrameArena, RecyclesCoroutineFrames)
{
    auto before = detail::FrameArena::stats();
    Simulator s;
    for (int i = 0; i < 50; ++i) {
        s.spawn([](Simulator &s) -> Task<> {
            co_await Delay{s.queue(), 1};
        }(s));
        s.runAll();
    }
    auto after = detail::FrameArena::stats();
    // Identical frame shapes every iteration: after the first spawn the
    // arena serves every frame from a free list.
    EXPECT_GE(after.reused - before.reused, 50u);
    EXPECT_LE(after.carved - before.carved, 4u);
}

TEST(FrameArena, LedgerAndChannelAwaitsAllocateNoFrames)
{
    Simulator s;
    MachineConfig cfg;
    node::Cpu cpu(s.queue(), cfg, "frames_cpu");
    Bus bus(s.queue(), 100.0, "frames_bus");
    Channel<int> ch(s.queue());
    constexpr int n = 1000;
    // Half the items are queued before the receives start (taken
    // without suspending), half arrive while the receiver waits
    // (handed over by send()).
    for (int i = 0; i < n / 2; ++i)
        ch.send(i);
    for (int i = n / 2; i < n; ++i)
        s.queue().schedule(Tick(10'000'000 + 10 * i), [&ch, i] {
            ch.send(i);
        });
    auto worker = [](node::Cpu &cpu, Bus &bus, Channel<int> *ch,
                     int &received) -> Task<> {
        for (int i = 0; i < n; ++i)
            co_await cpu.use(10);
        for (int i = 0; i < n; ++i)
            co_await bus.transfer(64);
        for (int i = 0; ch && i < n; ++i)
            received += (co_await ch->recv()) == i;
    };
    // Two workers, so the CPU and bus claims park as well as go through.
    int received = 0, unused = 0;
    s.spawn(worker(cpu, bus, &ch, received));
    s.spawn(worker(cpu, bus, nullptr, unused));
    auto before = detail::FrameArena::stats();
    s.runAll();
    auto after = detail::FrameArena::stats();
    EXPECT_EQ(received, n);
    EXPECT_EQ(cpu.stats().get("uses"), std::uint64_t(2 * n));
    EXPECT_EQ(bus.transactions(), std::uint64_t(2 * n));
    EXPECT_EQ(after.carved, before.carved);
    EXPECT_EQ(after.reused, before.reused);
    EXPECT_EQ(after.oversize, before.oversize);
}

// ---- address-range-keyed wakeups ---------------------------------------

TEST(AddrCondition, WakesOnlyOverlappingWaiters)
{
    Simulator s;
    AddrCondition c(s.queue());
    std::vector<std::pair<int, Tick>> woke;
    auto waiter = [](Simulator &s, AddrCondition &c,
                     std::vector<std::pair<int, Tick>> &woke, int id,
                     std::uint64_t lo, std::uint64_t hi) -> Task<> {
        co_await c.wait(lo, hi);
        woke.push_back({id, s.now()});
    };
    s.spawn(waiter(s, c, woke, 0, 0, 4));
    s.spawn(waiter(s, c, woke, 1, 8, 12));
    s.queue().scheduleIn(10, [&] { c.notifyRange(3, 5); }); // hits [0,4)
    s.queue().scheduleIn(20, [&] { c.notifyRange(8, 9); }); // hits [8,12)
    s.runAll();
    ASSERT_EQ(woke.size(), 2u);
    EXPECT_EQ(woke[0], (std::pair<int, Tick>{0, 10}));
    EXPECT_EQ(woke[1], (std::pair<int, Tick>{1, 20}));
}

TEST(AddrCondition, RangesAreHalfOpen)
{
    Simulator s;
    AddrCondition c(s.queue());
    Tick woke_at = 0;
    s.spawn([](Simulator &s, AddrCondition &c, Tick &woke_at) -> Task<> {
        co_await c.wait(4, 8);
        woke_at = s.now();
    }(s, c, woke_at));
    s.queue().scheduleIn(10, [&] { c.notifyRange(0, 4); }); // ends at lo
    s.queue().scheduleIn(20, [&] { c.notifyRange(8, 12); }); // starts at hi
    s.queue().scheduleIn(30, [&] { c.notifyRange(7, 8); }); // last byte
    s.runAll();
    EXPECT_EQ(woke_at, 30u);
}

TEST(AddrCondition, OverlappingWaitersWakeInWaitOrder)
{
    Simulator s;
    AddrCondition c(s.queue());
    std::vector<int> order;
    auto waiter = [](AddrCondition &c, std::vector<int> &order,
                     int id) -> Task<> {
        co_await c.wait(0, 64);
        order.push_back(id);
    };
    for (int id = 0; id < 4; ++id)
        s.spawn(waiter(c, order, id));
    s.queue().scheduleIn(5, [&] { c.notifyRange(10, 11); });
    s.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(AddrCondition, NotifiedWaiterCanRewaitWithoutRewake)
{
    Simulator s;
    AddrCondition c(s.queue());
    int wakes = 0;
    s.spawn([](AddrCondition &c, int &wakes) -> Task<> {
        co_await c.wait(0, 4);
        ++wakes;
        co_await c.wait(0, 4); // must not be satisfied by the same notify
        ++wakes;
    }(c, wakes));
    s.queue().scheduleIn(10, [&] { c.notifyRange(0, 4); });
    s.queue().scheduleIn(20, [&] { c.notifyRange(0, 4); });
    s.runAll();
    EXPECT_EQ(wakes, 2);
}

// ---- integer-ns occupancy: pin the calibrated bus rates ----------------

TEST(Bus, OccupancyPinsCalibratedConfigs)
{
    Simulator s;
    // The three bus rates the machine model instantiates (config.hh):
    // EISA DMA 24.5 MB/s, mesh link 175 MB/s, Ethernet 1 MB/s. Values
    // are ceil(bytes * 1e9 / bytesPerSec) exactly; a change to the
    // rounding rule shifts every simulated figure, so pin them.
    Bus eisa(s.queue(), 24.5, "pin_eisa");
    Bus link(s.queue(), 175.0, "pin_link");
    Bus ether(s.queue(), 1.0, "pin_ether");
    EXPECT_EQ(eisa.occupancy(4096), 167184u);        // 167183.67.. up
    EXPECT_EQ(eisa.occupancy(512, 1600), 22498u);    // setup + 20897.96..
    EXPECT_EQ(eisa.occupancy(49), 2000u);            // exact: no round-up
    EXPECT_EQ(link.occupancy(528), 3018u);           // 3017.14.. up
    EXPECT_EQ(link.occupancy(16), 92u);              // 91.43.. up
    EXPECT_EQ(link.occupancy(0, 100), 100u);         // zero bytes: setup
    EXPECT_EQ(ether.occupancy(1500), 1'500'000u);    // exact
}

TEST(ChannelStress, ManyProducersOneConsumerFifoPerProducer)
{
    Simulator s;
    Channel<std::pair<int, int>> ch(s.queue());
    const int producers = 5, per = 40;
    for (int p = 0; p < producers; ++p) {
        s.spawn([](Simulator &s, Channel<std::pair<int, int>> &ch, int p,
                   int per) -> Task<> {
            for (int i = 0; i < per; ++i) {
                co_await Delay{s.queue(), Tick(1 + (p * 7 + i) % 13)};
                ch.send({p, i});
            }
        }(s, ch, p, per));
    }
    std::vector<int> next(producers, 0);
    s.spawn([](Channel<std::pair<int, int>> &ch, std::vector<int> &next,
               int total) -> Task<> {
        for (int k = 0; k < total; ++k) {
            auto [p, i] = co_await ch.recv();
            EXPECT_EQ(i, next[p]) << "producer " << p;
            ++next[p];
        }
    }(ch, next, producers * per));
    s.runAll();
    for (int p = 0; p < producers; ++p)
        EXPECT_EQ(next[p], per);
}

} // namespace
} // namespace shrimp::sim
