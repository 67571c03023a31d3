/**
 * @file
 * Analyzer fixture for the charged-time rule: Engine::deliver() is the
 * seeded violation (a public Task datapath entry whose definition in
 * nic/engine.cc never charges CPU or bus time). pumpBus() charges
 * directly, drain() charges through pumpBus() (the fixpoint), and
 * waitIdle() is excused by an `analyze: free` annotation; none of
 * those — nor the non-Task depth() or the private hidden() — may be
 * flagged.
 */

#ifndef SHRIMP_NIC_ENGINE_HH
#define SHRIMP_NIC_ENGINE_HH

#include "sim/tasks.hh"

namespace shrimpfix
{

class Engine
{
  public:
    Task<> deliver(); // seeded: moves data, never charges time
    Task<> pumpBus(); // negative: awaits a bus transfer directly
    Task<> drain();   // negative: charges through pumpBus()

    // analyze: free — fixture: waits for idle, does no work itself.
    Task<> waitIdle();

    int depth() const;

  private:
    Task<> hidden(); // negative: private entries are not audited
};

} // namespace shrimpfix

#endif // SHRIMP_NIC_ENGINE_HH
