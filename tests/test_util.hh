/**
 * @file
 * Shared helpers for the shrimp test suite: running simulated tasks to
 * completion and generating deterministic pseudo-random payloads.
 */

#ifndef SHRIMP_TESTS_TEST_UTIL_HH
#define SHRIMP_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <random>
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
