/**
 * @file
 * Analyzer fixture for the dropped-task statement splitter: a braced
 * initializer inside a call's arguments must not merge the statements
 * after it, and a lambda body passed as an argument is still scanned
 * statement by statement.
 */

#include "sim/tasks.hh"

namespace shrimpfix
{

struct Sim
{
    void spawn(Task<> t);
};

void
bracedArgs(Sim &s)
{
    table(1, {{"a", 2}});
    s.spawn(tick()); // negative: spawned, not merged with the line above
    tick();          // seeded: a bare call after the braced argument
    s.spawn([](Sim &s) -> Task<> {
        pump(); // seeded: discarded inside a lambda passed as argument
        co_await s.done();
    }(s));
}

} // namespace shrimpfix
