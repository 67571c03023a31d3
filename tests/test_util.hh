/**
 * @file
 * Shared helpers for the shrimp test suite: running simulated tasks to
 * completion, the two-node workload the observability tests trace, and
 * generating deterministic pseudo-random payloads.
 */

#ifndef SHRIMP_TESTS_TEST_UTIL_HH
#define SHRIMP_TESTS_TEST_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/trace.hh"
#include "sim/simulator.hh"
#include "vmmc/vmmc.hh"

namespace shrimp::test
{

/** Spawn one task and run the simulation to completion. */
inline void
runTask(sim::Simulator &sim, sim::Task<> task)
{
    sim.spawn(std::move(task));
    sim.runAll();
}

/** A small but real two-node VMMC workload on a machine of its own:
 *  export, import (over the Ethernet daemons), one deliberate-update
 *  send of @p len bytes, poll for delivery. */
inline void
runSendWorkload(std::size_t len = 256)
{
    vmmc::System sys;
    auto &a = sys.createEndpoint(0);
    auto &b = sys.createEndpoint(1);
    sys.sim().spawn([](vmmc::Endpoint &a, vmmc::Endpoint &b,
                       std::size_t len) -> sim::Task<> {
        node::Process &pb = b.proc();
        VAddr recv = pb.alloc(8192, CacheMode::WriteThrough);
        vmmc::Status st = co_await b.exportBuffer(7, recv, 8192);
        SHRIMP_ASSERT(st == vmmc::Status::Ok, "export");
        auto r = co_await a.import(b.nodeId(), 7);
        SHRIMP_ASSERT(r.status == vmmc::Status::Ok, "import");
        node::Process &pa = a.proc();
        VAddr user = pa.alloc(4096);
        pa.poke32(user, 0xabcd);
        co_await a.send(r.handle, 0, user, len);
        co_await pb.waitWord32Eq(recv, 0xabcd);
    }(a, b, len));
    sys.sim().runAll();
}

/** @p json without its process ids: each "pid":N written as "pid":0,
 *  and the process_name records, which name a process by its id,
 *  dropped. Two runs of one workload are two trace processes, and
 *  equal modulo their ids. */
inline std::string
stripPids(const std::string &json)
{
    std::string kept;
    std::istringstream is(json);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"process_name\"") != std::string::npos)
            continue;
        std::size_t at = line.find("\"pid\":");
        if (at != std::string::npos) {
            at += 6;
            kept.append(line, 0, at).append("0");
            at = std::min(line.find_first_not_of("0123456789", at),
                          line.size());
        } else {
            at = 0;
        }
        kept.append(line, at).append("\n");
    }
    return kept;
}

/** Incremental 64-bit FNV-1a: folds a whole delivery or flow-event
 *  stream into one constant a test can pin. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mix(std::uint8_t(v >> (8 * i)));
    }

    /** Mix a NUL-terminated string, terminator included. */
    void
    add(const char *s)
    {
        do
            mix(std::uint8_t(*s));
        while (*s++);
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    mix(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 1099511628211ull;
    }

    std::uint64_t h_ = 14695981039346656037ull;
};

/** Digest of the captured trace's flow events (base/span.hh) — phase,
 *  tick, name and id of each, in recording order — or 0 if none. */
inline std::uint64_t
flowDigest()
{
    Digest d;
    bool any = false;
    for (const auto &e : trace::Tracer::instance().events()) {
        if (e.phase < trace::Tracer::Phase::FlowStart)
            continue;
        any = true;
        d.add(std::uint64_t(e.phase));
        d.add(e.tick);
        d.add(e.name);
        d.add(e.id);
    }
    return any ? d.value() : 0;
}

/** Deterministic pseudo-random payload. */
inline std::vector<std::uint8_t>
pattern(std::size_t n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = std::uint8_t(rng());
    return v;
}

} // namespace shrimp::test

#endif // SHRIMP_TESTS_TEST_UTIL_HH
