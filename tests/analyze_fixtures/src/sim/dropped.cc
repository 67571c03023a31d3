/**
 * @file
 * Analyzer fixture for the dropped-task rule: two seeded violations in
 * runsNothing() (a bare discarded call and a stored-but-never-awaited
 * local) and one in sends() (an ambiguous name whose typed receiver
 * returns a Task), surrounded by every consumed shape the rule must
 * NOT flag.
 */

#include "sim/tasks.hh"

namespace shrimpfix
{

struct Wrapper
{
    explicit Wrapper(int depth);
};

void
runsNothing()
{
    tick();          // seeded: result discarded, coroutine never runs
    auto t = pump(); // seeded: stored in 't', never awaited or started
}

Task<>
consumesAll()
{
    auto held = pump();  // negative: 'held' is awaited below
    co_await tick();     // negative: awaited in the same statement
    co_await held;
    consume(sample());   // negative: nested in a call, ownership escapes
    co_return;
}

Task<>
forwards()
{
    return pump(); // negative: returned to the caller
}

void
declShape()
{
    Wrapper tick(3); // negative: a declaration named like a Task fn
    (void)tick;
}

void
shadows()
{
    auto pump = [] { return 0; }; // negative: local lambda rebinds name
    pump();
}

void
ambiguous()
{
    poll(); // negative: 'poll' has a non-Task overload in the index
}

void
sends(Endpoint &ep, Channel &ch)
{
    ep.send(1); // seeded: Endpoint::send returns a Task
    ch.send(2); // negative: Channel::send returns void
}

} // namespace shrimpfix
