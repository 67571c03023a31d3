/**
 * @file
 * Analyzer fixture: one half of a seeded include cycle
 * (base/loop_a.hh -> base/loop_b.hh -> base/loop_a.hh). The guards
 * hide the compile error; the layering rule must still report it.
 */

#ifndef SHRIMP_BASE_LOOP_A_HH
#define SHRIMP_BASE_LOOP_A_HH

#include "base/loop_b.hh"

namespace shrimpfix
{

struct LoopA
{
    int a = 0;
};

} // namespace shrimpfix

#endif // SHRIMP_BASE_LOOP_A_HH
