/**
 * @file
 * Analyzer fixture for the include order of a layered .cc with no own
 * header: the <string> include below the project include is the
 * seeded layering finding, and <vector> above it is the near-miss. The
 * code is the hygiene rule's near-miss set: std::function and a class
 * named Task are checked in sim/ only, and main() in headers only.
 */

#include <vector>

#include "sim/tasks.hh"

#include <string>

namespace shrimpfix
{

struct Task
{
    std::function<void()> run;
};

int
main()
{
    return 0;
}

} // namespace shrimpfix
