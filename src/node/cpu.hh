/**
 * @file
 * Cpu: the node processor as a serially-shared timing resource. All
 * compute performed by the (possibly several) processes of a node flows
 * through use(), which holds the CPU's ledger for the charged time, so
 * processes run one at a time in arrival order. The per-operation costs
 * of the 60 MHz Pentium are in MachineConfig.
 */

#ifndef SHRIMP_NODE_CPU_HH
#define SHRIMP_NODE_CPU_HH

#include <string>

#include "base/config.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "base/types.hh"
#include "sim/sync.hh"

namespace shrimp::node
{

class Cpu
{
  public:
    Cpu(sim::EventQueue &queue, const MachineConfig &cfg,
        std::string name = "cpu");

    /** Awaiter for use(): one `compute` span on the CPU's track. */
    class [[nodiscard]] UseAwaiter : public sim::Hold<UseAwaiter>
    {
      public:
        UseAwaiter(Cpu &cpu, Tick t) : Hold(cpu.ledger_), cpu_(cpu), t_(t)
        {}

      private:
        friend class sim::Hold<UseAwaiter>;
        Tick begin();
        void end();

        Cpu &cpu_;
        Tick t_;
        bool traced_ = false; //!< the span began with tracing on
    };

    /** Occupy the CPU for @p t ticks of computation. */
    UseAwaiter use(Tick t) { return UseAwaiter(*this, t); }

    /** Time to memcpy @p bytes to a destination with cache mode
     *  @p mode (excluding the per-call overhead). */
    Tick copyTime(std::size_t bytes, CacheMode mode) const;

    const MachineConfig &config() const { return cfg_; }
    Tick busyTime() const { return statBusyNs_.value(); }
    stats::Group &stats() { return stats_; }

  private:
    sim::EventQueue &queue_;
    const MachineConfig &cfg_;
    sim::Ledger ledger_;
    stats::Group stats_;
    trace::TrackId track_;
    // use() is the hottest call in the simulator (every poll iteration
    // lands here); stat lookups are hoisted to construction.
    stats::Counter &statUses_;
    stats::Counter &statBusyNs_;
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_CPU_HH
