/**
 * @file
 * Analyzer fixture for the layering order rule: mem/ sits at layer 2
 * and must not include net/ (layer 3) — the first include below is the
 * seeded violation. The base/ include is the near-miss: reaching
 * *down* the layer order is always fine.
 */

#ifndef SHRIMP_MEM_BACKDOOR_HH
#define SHRIMP_MEM_BACKDOOR_HH

#include "net/wire.hh"

#include "base/loop_a.hh"

namespace shrimpfix
{

struct Backdoor
{
    Wire wire;
    LoopA low;
};

} // namespace shrimpfix

#endif // SHRIMP_MEM_BACKDOOR_HH
