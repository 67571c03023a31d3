#include "node/cpu.hh"

#include "sim/profile.hh"

namespace shrimp::node
{

Cpu::Cpu(sim::EventQueue &queue, const MachineConfig &cfg, std::string name)
    : queue_(queue), cfg_(cfg), ledger_(queue), stats_(std::move(name)),
      track_(trace::track(stats_.name())),
      statUses_(stats_.counter("uses")),
      statBusyNs_(stats_.counter("busyNs"))
{
}

Tick
Cpu::UseAwaiter::begin()
{
    sim::profile::retag(sim::profile::Subsys::Cpu);
    traced_ = trace::on();
    if (traced_)
        trace::Tracer::instance().begin(cpu_.track_, "compute",
                                        cpu_.queue_.now());
    return t_;
}

void
Cpu::UseAwaiter::end()
{
    cpu_.statUses_ += 1;
    cpu_.statBusyNs_ += t_;
    if (traced_)
        trace::Tracer::instance().end(cpu_.track_, "compute",
                                      cpu_.queue_.now());
}

Tick
Cpu::copyTime(std::size_t bytes, CacheMode mode) const
{
    return units::transferTime(bytes, cfg_.copyBw(mode));
}

} // namespace shrimp::node
