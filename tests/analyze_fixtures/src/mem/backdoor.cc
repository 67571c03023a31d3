/**
 * @file
 * Analyzer fixture for two checks a layered .cc gets outside sim/ and
 * check/. Seeded: the system include above the own header (layering:
 * the own header must come first), and a host clock read in mem/ (the
 * determinism ban covers every layered src dir). nic/engine.cc, whose
 * own header comes first, is the include-order near-miss.
 */

#include <chrono>

#include "mem/backdoor.hh"

namespace shrimpfix
{

long
stamp()
{
    return steady_clock::now().time_since_epoch().count();
}

} // namespace shrimpfix
