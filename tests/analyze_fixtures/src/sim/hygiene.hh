/**
 * @file
 * Analyzer fixture for the hygiene rule. Seeded: the guard below still
 * names the header's old path, a `using namespace` at namespace scope,
 * a main() declaration, a std::function member in the sim core, and a
 * Task class that dropped [[nodiscard]]. Near-miss: the `using
 * namespace` inside an inline function body, which leaks into no
 * includer. node/order.cc holds the scope near-misses.
 */

#ifndef SHRIMP_SIM_OLD_HYGIENE_HH
#define SHRIMP_SIM_OLD_HYGIENE_HH

namespace shrimpfix
{

using namespace std;

int main();

struct Hooks
{
    std::function<void()> onEvent;
};

template <typename T>
class Task
{
};

inline long
literals()
{
    using namespace std::chrono_literals;
    return 0;
}

} // namespace shrimpfix

#endif // SHRIMP_SIM_OLD_HYGIENE_HH
