/**
 * @file
 * Analyzer fixture for the dropped-task rule: two seeded violations in
 * runsNothing() (a bare discarded call and a stored-but-never-awaited
 * local), one in sends() (an ambiguous name whose typed receiver
 * returns a Task) and four in appends() (a name that is a Task in every
 * declaration, called on its class, on a subclass and through an
 * `auto &` alias, beside std::string calls of the same name),
 * surrounded by every consumed shape the rule must NOT flag.
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

void
appends(Sink &sink, std::string &text, int n)
{
    std::string line = "x";
    text.append(line);             // negative: std::string::append
    line.append("y").append("z");  // negative: a chain on std::string
    while (n-- > 0)
        text.append(line);         // negative: a control head ends first
    sink.append(3);                // seeded: Sink::append returns a Task
    LoudSink loud;
    loud.append(4);                // seeded: inherited from Sink
    auto &alias = sink;
    alias.append(5);               // seeded: an untyped receiver counts
    auto kept = alias.append(6);   // seeded: stored, never awaited
}

} // namespace shrimpfix
