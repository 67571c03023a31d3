#include "node/process.hh"

#include <algorithm>
#include <memory>

#include "base/logging.hh"
#include "check/check.hh"
#include "check/race.hh"

namespace shrimp::node
{

Process::Process(Node &node, int pid)
    : node_(node), pid_(pid), as_(node.memory())
{
    SHRIMP_CHECK_HOOK(
        raceActor_ = check::RaceDetector::instance().registerActor(
            logging::format("node%u.p%d", unsigned(node.id()), pid),
            check::ActorKind::Cpu));
}

VAddr
Process::alloc(std::size_t bytes, CacheMode mode)
{
    return as_.alloc(bytes, mode);
}

void
Process::poke(VAddr addr, const void *src, std::size_t n)
{
    node_.memory().write(as_.translateRange(addr, n), src, n);
}

void
Process::peek(VAddr addr, void *dst, std::size_t n) const
{
    // Attributed (unlike poke): protocol layers model their CPU loads
    // with peek, and a peek that observes a receive flag is exactly the
    // poll the race detector turns into an ordering edge.
    SHRIMP_RACE_SCOPE(raceActor_);
    node_.memory().read(as_.translateRange(addr, n), dst, n);
}

void
Process::debugPeek(VAddr addr, void *dst, std::size_t n) const
{
    // Backdoor like poke: an omniscient harness verification read,
    // invisible to the race detector (no actor attribution).
    node_.memory().read(as_.translateRange(addr, n), dst, n);
}

std::uint32_t
Process::peek32(VAddr addr) const
{
#ifndef SHRIMP_CHECK
    // Word fast path: flag and ring polls are the hottest reads in the
    // system (NX descriptor scans, credit drains), and an aligned word
    // never crosses a page, so one page translation plus the inline
    // word read replaces the generic range-translate + memcpy dispatch.
    // Checked builds keep the generic path below so the race detector
    // sees every access.
    if (addr % sizeof(std::uint32_t) == 0)
        return node_.memory().read32(as_.translate(addr));
#endif
    std::uint32_t v;
    peek(addr, &v, sizeof(v));
    return v;
}

void
Process::poke32(VAddr addr, std::uint32_t v)
{
    poke(addr, &v, sizeof(v));
}

sim::Task<>
Process::write(VAddr dst, const void *src, std::size_t n)
{
    const MachineConfig &cfg = config();
    mem::Memory &memory = node_.memory();
    const auto *p = static_cast<const std::uint8_t *>(src);

    co_await node_.cpu().use(cfg.copyCallOverhead);
    std::size_t done = 0;
    while (done < n) {
        VAddr va = dst + VAddr(done);
        PAddr pa = as_.translate(va);
        std::size_t to_page =
            memory.pageBytes() - (pa & (memory.pageBytes() - 1));
        std::size_t chunk =
            std::min({n - done, to_page, cfg.auCombineLimit});
        CacheMode mode = as_.cacheMode(va);
        co_await node_.cpu().use(node_.cpu().copyTime(chunk, mode));
        {
            // Scope covers store + snoop but no co_await.
            SHRIMP_RACE_SCOPE(raceActor_);
            memory.write(pa, p + done, chunk);
            node_.nic().snoopWrite(pa, p + done, chunk);
        }
        done += chunk;
    }
}

sim::Task<>
Process::read(VAddr src, void *dst, std::size_t n)
{
    const MachineConfig &cfg = config();
    co_await node_.cpu().use(cfg.copyCallOverhead +
                             node_.cpu().copyTime(n, CacheMode::WriteBack));
    peek(src, dst, n);
}

sim::Task<>
Process::copy(VAddr dst, VAddr src, std::size_t n)
{
    // Read the (local) source and push it through the store path; the
    // copy cost is charged by write() according to the destination
    // page's cache mode, modelling an overlapped load/store memcpy. The
    // whole source is snapshot before the first suspension; the peek
    // fills every byte, so the buffer starts uninitialised.
    auto tmp = std::make_unique_for_overwrite<std::uint8_t[]>(n);
    peek(src, tmp.get(), n);
    co_await write(dst, tmp.get(), n);
}

sim::Task<>
Process::store32(VAddr addr, std::uint32_t v)
{
    co_await write(addr, &v, sizeof(v));
}

sim::Task<std::uint32_t>
Process::load32(VAddr addr)
{
    co_await node_.cpu().use(config().cpuOpCost);
    co_return peek32(addr);
}

sim::Task<>
Process::pollSleep(VAddr addr, std::size_t n)
{
    // Forward the task directly: no wrapper coroutine frame per call.
    return pollSleepPhys(as_.translateRange(addr, n), n);
}

sim::Task<>
Process::pollSleepPhys(PAddr pa, std::size_t n)
{
    // Register the watchpoint *before* any suspension: the caller
    // checked its predicate synchronously just before awaiting us, so
    // no write can slip through unobserved. The poll-check cost is
    // charged on wakeup (it models the re-check that follows).
    co_await node_.memory().waitWrite(pa, n);
    co_await node_.cpu().use(config().pollCheckCost);
}

sim::AddrCondition::WaitAwaiter
Process::sleepUntilWrite(VAddr addr, std::size_t n)
{
    return node_.memory().waitWrite(as_.translateRange(addr, n), n);
}

sim::Task<>
Process::detectPenalty(VAddr addr)
{
    if (as_.cacheMode(addr) != CacheMode::Uncached)
        co_await sim::Delay{sim().queue(), config().wtReceivePenalty};
}

sim::Task<std::uint32_t>
Process::pollWord32(VAddr addr, std::uint32_t ref, bool want_equal)
{
    const MachineConfig &cfg = config();
    for (;;) {
        co_await node_.cpu().use(cfg.pollCheckCost);
        std::uint32_t v = peek32(addr);
        if ((v == ref) == want_equal) {
            if (as_.cacheMode(addr) != CacheMode::Uncached)
                co_await sim::Delay{sim().queue(), cfg.wtReceivePenalty};
            co_return v;
        }
        co_await sleepUntilWrite(addr, sizeof(std::uint32_t));
    }
}

sim::Task<std::uint32_t>
Process::waitWord32Ne(VAddr addr, std::uint32_t not_value)
{
    // Forward the task directly: no wrapper coroutine frame per call.
    return pollWord32(addr, not_value, false);
}

sim::Task<std::uint32_t>
Process::waitWord32Eq(VAddr addr, std::uint32_t value)
{
    return pollWord32(addr, value, true);
}

} // namespace shrimp::node
