/**
 * @file
 * ShrimpNic: the custom SHRIMP network interface (paper section 3.2),
 * composed of the snoop logic, outgoing page table, packetizer with
 * outgoing FIFO, deliberate-update engine, incoming page table, and
 * incoming DMA engine. Outgoing packets are pumped through the NIC's
 * processor port (a fixed per-packet forwarding cost stands in for the
 * arbiter and NIC chip) and injected into the mesh via a hook installed
 * by the Machine, which also tracks in-flight packets at the receiver
 * for drain (unexport) support.
 */

#ifndef SHRIMP_NIC_SHRIMP_NIC_HH
#define SHRIMP_NIC_SHRIMP_NIC_HH

#include <functional>

#include "base/config.hh"
#include "base/span.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "mem/memory.hh"
#include "net/packet.hh"
#include "nic/deliberate_update_engine.hh"
#include "nic/incoming_dma_engine.hh"
#include "nic/incoming_page_table.hh"
#include "nic/outgoing_page_table.hh"
#include "nic/packetizer.hh"
#include "sim/bus.hh"
#include "sim/simulator.hh"

namespace shrimp::nic
{

class ShrimpNic
{
  public:
    /**
     * @param input the router eject queue feeding the incoming engine
     */
    ShrimpNic(sim::Simulator &sim, const MachineConfig &cfg, NodeId self,
              mem::Memory &memory, sim::Bus &eisa,
              sim::Channel<net::Packet> &input);

    /** Install the mesh-injection hook (set by the Machine). */
    void setInjector(std::function<void(net::Packet)> inject);

    /** Spawn the outgoing pump and incoming engine daemons. */
    void start();

    /**
     * Snoop path: the CPU performed a memory-bus write of @p len bytes
     * at physical address @p addr. If the page has an automatic-update
     * binding, the data is packetized toward the bound remote page.
     * A single snooped write never crosses a page boundary.
     */
    void snoopWrite(PAddr addr, const void *data, std::size_t len);

    /**
     * Deliberate-update transfer through import slot @p slot. The CPU's
     * two initiation accesses are charged by the caller; this models
     * the engine work and blocks until the source has been read.
     * @param span sampled flow id carried into the packets (0 = none).
     */
    sim::Task<> deliberateSend(std::uint32_t slot, std::size_t dst_off,
                               PAddr src, std::size_t len, bool notify,
                               span::SpanId span = 0);

    NodeId id() const { return self_; }
    OutgoingPageTable &opt() { return opt_; }
    IncomingPageTable &ipt() { return ipt_; }
    Packetizer &packetizer() { return packetizer_; }
    IncomingDmaEngine &incoming() { return incoming_; }
    DeliberateUpdateEngine &duEngine() { return duEngine_; }

    std::uint64_t packetsInjected() const { return injected_; }

  private:
    sim::Task<> pumpLoop();

    sim::Simulator &sim_;
    const MachineConfig &cfg_;
    NodeId self_;
    mem::Memory &mem_;

    sim::Channel<net::Packet> outFifo_;
    OutgoingPageTable opt_;
    IncomingPageTable ipt_;
    Packetizer packetizer_;
    DeliberateUpdateEngine duEngine_;
    IncomingDmaEngine incoming_;

    std::function<void(net::Packet)> inject_;
    std::uint64_t injected_ = 0;
    bool started_ = false;

    stats::Group stats_;
    trace::TrackId track_;
    // snoopWrite() runs per snooped store; stat lookups are hoisted to
    // construction so the per-store cost is a plain increment.
    stats::Counter &statPacketsInjected_;
    stats::Counter &statOptLookups_;
    stats::Counter &statOptHits_;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_SHRIMP_NIC_HH
