/**
 * @file
 * Packetizer + Outgoing FIFO: forms packets from snooped automatic
 * updates and from deliberate-update engine data (paper section 3.2).
 *
 * For automatic update, if the source page is configured for combining,
 * a write to the address immediately following the pending packet's data
 * is appended instead of starting a new packet. A non-consecutive write
 * (or a write through a different OPT entry) flushes the pending packet
 * first, preserving program order. A hardware timer flushes a pending
 * packet when no subsequent update arrives within the timeout. The
 * timer is one queue event per packetizer: a store that extends the
 * packet cancels the armed event and schedules the next, and a flush
 * cancels it (EventQueue::cancel), so a timer event that runs always
 * has a packet to flush.
 *
 * Deliberate-update packets are never combined; emitting one flushes any
 * pending automatic-update packet first so that all data leaves the node
 * in program order (the backplane then preserves it end to end).
 */

#ifndef SHRIMP_NIC_PACKETIZER_HH
#define SHRIMP_NIC_PACKETIZER_HH

#include <cstddef>
#include <optional>

#include "base/config.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "net/packet.hh"
#include "nic/outgoing_page_table.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"

namespace shrimp::nic
{

class Packetizer
{
  public:
    Packetizer(sim::Simulator &sim, const MachineConfig &cfg, NodeId self,
               sim::Channel<net::Packet> &out_fifo);

    /**
     * A snooped automatic-update write of @p len bytes that hit OPT
     * entry @p e, destined for physical address @p dest_addr on the
     * remote node. May combine with the pending packet.
     */
    void auWrite(const OptEntry &e, PAddr dest_addr, const void *data,
                 std::size_t len);

    /** Enqueue a fully-formed deliberate-update packet. */
    void duPacket(net::Packet pkt);

    /** Flush the pending combined packet, if any. */
    void flushPending();

    bool hasPending() const { return pending_.has_value(); }

    NodeId self() const { return self_; }

    /** Race-detector actor id of the snoop/combining path (noActor in
     *  non-SHRIMP_CHECK builds). */
    std::uint32_t raceActor() const { return raceActor_; }

    std::uint64_t packetsFormed() const { return packetsFormed_; }
    std::uint64_t writesCombined() const { return writesCombined_; }
    std::uint64_t timerFlushes() const { return timerFlushes_; }

  private:
    void startPending(const OptEntry &e, PAddr dest_addr, const void *data,
                      std::size_t len);
    void armTimer();
    void cancelTimer();

    sim::Simulator &sim_;
    const MachineConfig &cfg_;
    NodeId self_;
    sim::Channel<net::Packet> &outFifo_;

    std::optional<net::Packet> pending_;
    std::uint32_t raceActor_ = 0xffffffffu; // check::noActor
    bool pendingTimerEnabled_ = false;
    //! The armed flush timer's event; empty while none is pending.
    sim::EventQueue::Handle timer_;

    std::uint64_t packetsFormed_ = 0;
    std::uint64_t writesCombined_ = 0;
    std::uint64_t timerFlushes_ = 0;

    stats::Group stats_;
    trace::TrackId track_;
    // auWrite() runs per snooped store; stat lookups are hoisted to
    // construction so the per-write cost is a plain increment.
    stats::Counter &statPacketsFormed_;
    stats::Counter &statDuPackets_;
    stats::Counter &statBytesFormed_;
    stats::Counter &statWritesCombined_;
    stats::Counter &statTimerFlushes_;
    stats::Distribution &statPacketBytes_;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_PACKETIZER_HH
