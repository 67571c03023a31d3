/**
 * @file
 * IncomingDmaEngine: drains packets ejected by the node's router,
 * validates the destination page against the incoming page table, and
 * transfers the payload to main memory over the EISA bus (paper section
 * 3.2).
 *
 * If data arrives for a page that is not enabled, the receive datapath
 * freezes and the node CPU is interrupted; the trusted daemon either
 * fixes the IPT and unfreezes, or tells the engine to drop the packet.
 * While frozen, later packets back up in the eject queue.
 *
 * The engine also tracks in-flight packets per destination page so that
 * unexport/unimport can wait for pending messages to drain (paper
 * section 2.1).
 */

#ifndef SHRIMP_NIC_INCOMING_DMA_ENGINE_HH
#define SHRIMP_NIC_INCOMING_DMA_ENGINE_HH

#include <functional>
#include <vector>

#include "base/config.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "mem/memory.hh"
#include "net/packet.hh"
#include "nic/incoming_page_table.hh"
#include "sim/bus.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"

namespace shrimp::nic
{

/** What the daemon decided to do about a frozen packet. */
enum class FreezeAction
{
    Retry, //!< IPT has been fixed; deliver the packet
    Drop,  //!< discard the offending packet
};

class IncomingDmaEngine
{
  public:
    /** Called (once per offending packet) when the datapath freezes. */
    using BadPacketHandler =
        std::function<void(const net::Packet &, PageNum)>;

    /** Called after a packet with the sender-specified interrupt flag
     *  lands in a page whose IPT interrupt flag is set. */
    using NotifyHandler = std::function<void(const net::Packet &)>;

    IncomingDmaEngine(sim::Simulator &sim, const MachineConfig &cfg,
                      NodeId self, mem::Memory &memory, sim::Bus &eisa,
                      IncomingPageTable &ipt,
                      sim::Channel<net::Packet> &input);

    /** The engine's service loop; ShrimpNic spawns it as a daemon. */
    sim::Task<> loop();

    void setBadPacketHandler(BadPacketHandler h) { badHandler_ = std::move(h); }
    void setNotifyHandler(NotifyHandler h) { notifyHandler_ = std::move(h); }

    /** Resume a frozen datapath with the given resolution. */
    void unfreeze(FreezeAction action);

    bool frozen() const { return frozen_; }

    /** Record a packet headed for this node (called at injection time). */
    void noteInflight(PAddr addr);

    /** Wait until no packet is in flight toward pages [first, last].
     *  analyze: free — pure blocking on the drain condition; the
     *  deliveries being waited for charge their own bus time. */
    sim::Task<> waitDrain(PageNum first, PageNum last);

    /** Race-detector actor id of this engine's delivery writes (noActor
     *  in non-SHRIMP_CHECK builds). */
    std::uint32_t raceActor() const { return raceActor_; }

    std::uint64_t packetsDelivered() const { return delivered_; }
    std::uint64_t packetsDropped() const { return dropped_; }
    std::uint64_t bytesDelivered() const { return bytesDelivered_; }
    std::uint64_t notifications() const { return notifications_; }
    std::uint64_t freezes() const { return freezes_; }

  private:
    void noteDone(PAddr addr);

    sim::Simulator &sim_;
    const MachineConfig &cfg_;
    NodeId self_;
    mem::Memory &mem_;
    sim::Bus &eisa_;
    IncomingPageTable &ipt_;
    sim::Channel<net::Packet> &input_;

    BadPacketHandler badHandler_;
    NotifyHandler notifyHandler_;

    bool frozen_ = false;
    FreezeAction freezeAction_ = FreezeAction::Retry;
    sim::Condition unfreezeCond_;

    /** Packets in flight per destination page, grown to the highest
     *  page noted (like Memory's write stamps). */
    std::vector<std::uint32_t> inflight_;
    sim::Condition drainCond_;
    std::uint32_t raceActor_ = 0xffffffffu; // check::noActor

    std::uint64_t delivered_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t bytesDelivered_ = 0;
    std::uint64_t notifications_ = 0;
    std::uint64_t freezes_ = 0;

    stats::Group stats_;
    trace::TrackId track_;
    // Per-packet path; stat lookups hoisted to construction.
    stats::Counter &statFreezes_;
    stats::Counter &statPacketsDropped_;
    stats::Counter &statPacketsDelivered_;
    stats::Counter &statBytesDelivered_;
    stats::Counter &statNotifications_;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_INCOMING_DMA_ENGINE_HH
