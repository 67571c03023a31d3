/**
 * @file
 * Analyzer fixture: a clean layer-3 header that mem/backdoor.hh
 * reaches *up* to (the seeded order violation lives there, not here).
 */

#ifndef SHRIMP_NET_WIRE_HH
#define SHRIMP_NET_WIRE_HH

#include "base/loop_a.hh"

namespace shrimpfix
{

struct Wire
{
    int latency = 0;
};

} // namespace shrimpfix

#endif // SHRIMP_NET_WIRE_HH
