/**
 * @file
 * Analyzer fixture: the other half of the seeded include cycle with
 * base/loop_a.hh.
 */

#ifndef SHRIMP_BASE_LOOP_B_HH
#define SHRIMP_BASE_LOOP_B_HH

#include "base/loop_a.hh"

namespace shrimpfix
{

struct LoopB
{
    int b = 0;
};

} // namespace shrimpfix

#endif // SHRIMP_BASE_LOOP_B_HH
