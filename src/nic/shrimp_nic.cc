#include "nic/shrimp_nic.hh"

#include "base/logging.hh"
#include "check/check.hh"
#include "sim/profile.hh"

namespace shrimp::nic
{

ShrimpNic::ShrimpNic(sim::Simulator &sim, const MachineConfig &cfg,
                     NodeId self, mem::Memory &memory, sim::Bus &eisa,
                     sim::Channel<net::Packet> &input)
    : sim_(sim), cfg_(cfg), self_(self), mem_(memory),
      outFifo_(sim.queue()), opt_(memory.numPages()),
      ipt_(memory.numPages()), packetizer_(sim, cfg, self, outFifo_),
      duEngine_(cfg, memory, eisa, packetizer_),
      incoming_(sim, cfg, self, memory, eisa, ipt_, input),
      stats_("node" + std::to_string(self) + ".nic"),
      track_(trace::track(stats_.name())),
      statPacketsInjected_(stats_.counter("packetsInjected")),
      statOptLookups_(stats_.counter("optLookups")),
      statOptHits_(stats_.counter("optHits"))
{
}

void
ShrimpNic::setInjector(std::function<void(net::Packet)> inject)
{
    inject_ = std::move(inject);
}

void
ShrimpNic::start()
{
    if (started_)
        panic("ShrimpNic started twice");
    started_ = true;
    // spawnDaemon: these loops run for the life of the machine.
    sim_.spawnDaemon(pumpLoop());
    sim_.spawnDaemon(incoming_.loop());
}

sim::Task<>
ShrimpNic::pumpLoop()
{
    for (;;) {
        net::Packet pkt = co_await outFifo_.recv();
        sim::profile::retag(sim::profile::Subsys::Nic);
        // Arbiter + NIC processor port + packet-header formation.
        co_await sim::Delay{sim_.queue(),
                            cfg_.nicForwardCost + cfg_.snoopPacketizeCost};
        if (!inject_)
            panic("NIC has no mesh injector installed");
        ++injected_;
        // Per-NIC injection sequence (1-based; 0 means unsequenced).
        // The backplane preserves per-source order, so receivers can
        // verify in-order delivery against this.
        pkt.seq = injected_;
        statPacketsInjected_ += 1;
        trace::instant(track_, "pkt.injected", sim_.queue().now());
        span::step(pkt.spanId, track_, "pkt.inject", sim_.queue().now());
        inject_(std::move(pkt));
    }
}

void
ShrimpNic::snoopWrite(PAddr addr, const void *data, std::size_t len)
{
    if (len == 0)
        return;
    PageNum page = mem_.pageOf(addr);
    if (mem_.pageOf(addr + PAddr(len) - 1) != page)
        panic("snooped write crosses a page boundary");
    statOptLookups_ += 1;
    const OptEntry *e = opt_.lookupPage(page);
    if (!e)
        return;
    statOptHits_ += 1;
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onOptUse(
        self_, e->valid, e->destNode, std::size_t(addr % cfg_.pageBytes),
        len, e->len));
    PAddr dest = e->destBase + PAddr(addr % cfg_.pageBytes);
    packetizer_.auWrite(*e, dest, data, len);
}

sim::Task<>
ShrimpNic::deliberateSend(std::uint32_t slot, std::size_t dst_off,
                          PAddr src, std::size_t len, bool notify,
                          span::SpanId span)
{
    const OptEntry *e = opt_.slot(slot);
    if (!e)
        panic("deliberateSend through unknown import slot");
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onOptUse(
        self_, e->valid, e->destNode, dst_off, len, e->len));
    co_await duEngine_.send(*e, dst_off, src, len, notify, span);
}

} // namespace shrimp::nic
