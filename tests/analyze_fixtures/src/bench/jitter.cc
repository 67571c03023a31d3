/**
 * @file
 * Analyzer fixture for the determinism-taint rule. This file lives in
 * bench/ deliberately: the plain determinism rule only polices the
 * layered src dirs, so host clocks here are legal — until a value
 * derived from one reaches event scheduling. Seeded flows: a
 * clock-derived local into scheduleIn(), a PRNG value through a
 * parameter the summaries prove reaches a sink, a tainted return
 * value, and a brace-constructed Delay{}. Negatives: profiling that
 * never reaches a sink (also the determinism rule's near-miss: a host
 * clock outside the layered dirs), and an annotated intentional fuzz.
 */

#include "sim/tasks.hh"

namespace shrimpfix
{

struct Queue
{
    void scheduleIn(long d, int ev);
};

void
jitters(Queue &q)
{
    auto skew = steady_clock::now().time_since_epoch().count();
    long delay = skew % 8; // taint propagates through the local
    q.scheduleIn(delay, 1); // seeded: host clock reaches the sink
}

void
profiles()
{
    auto t0 = steady_clock::now(); // negative: never reaches a sink
    auto t1 = steady_clock::now();
    long span = (t1 - t0).count();
    record(span); // record() is no scheduling sink
}

void
paramSink(long when, Queue &q)
{
    q.scheduleIn(when, 2); // makes 'when' a sink parameter
}

void
indirect(Queue &q)
{
    long noisy = random();
    paramSink(noisy, q); // seeded: flows through paramSink's parameter
}

long
hostNow()
{
    return random(); // returnsTaint in the summary
}

void
schedulesHost(Queue &q)
{
    long t = hostNow(); // tainted via the callee's summarized return
    q.scheduleIn(t, 3); // seeded
}

Task<>
waitsNoisy()
{
    long span = random() % 5;
    co_await Delay{span}; // seeded: brace-constructed sink
}

void
allowedJitter(Queue &q)
{
    long fuzz = random() % 3;
    // analyze: allow(determinism-taint) — fixture: intentional host
    // fuzz, the test wants nondeterministic arrival on purpose.
    q.scheduleIn(fuzz, 4); // negative: annotated
}

} // namespace shrimpfix
