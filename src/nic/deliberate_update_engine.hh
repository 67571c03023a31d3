/**
 * @file
 * DeliberateUpdateEngine: interprets the two-access transfer-initiation
 * sequence (source address, destination, size) and performs DMA through
 * the EISA bus to read the source data from main memory, handing the
 * data to the packetizer (paper sections 2.2 and 3.2).
 *
 * A transfer is split into packets that never cross a destination page
 * boundary (the incoming page table is checked per page) and never
 * exceed the maximum packet payload. The blocking send completes when
 * the last byte of source data has been read out of memory, after which
 * the sender may reuse its source buffer.
 */

#ifndef SHRIMP_NIC_DELIBERATE_UPDATE_ENGINE_HH
#define SHRIMP_NIC_DELIBERATE_UPDATE_ENGINE_HH

#include <cstddef>

#include "base/config.hh"
#include "base/span.hh"
#include "mem/memory.hh"
#include "nic/outgoing_page_table.hh"
#include "nic/packetizer.hh"
#include "sim/bus.hh"
#include "sim/task.hh"

namespace shrimp::nic
{

class DeliberateUpdateEngine
{
  public:
    DeliberateUpdateEngine(const MachineConfig &cfg, mem::Memory &memory,
                           sim::Bus &eisa, Packetizer &packetizer);

    /**
     * Execute one deliberate-update transfer.
     *
     * @param dst OPT import slot describing the destination window
     *        (a copy: an import during the transfer may reallocate the
     *        slot table)
     * @param dst_off byte offset into the destination window
     * @param src source physical address (word aligned)
     * @param len transfer length in bytes (rounded up to whole words on
     *        the wire, as the hardware does)
     * @param notify set the sender-specified interrupt flag on the last
     *        packet of the transfer
     * @param span sampled flow id stamped into every packet of the
     *        transfer (0 = message not sampled)
     *
     * Completes when the source data has been fully read from memory.
     */
    sim::Task<> send(OptEntry dst, std::size_t dst_off, PAddr src,
                     std::size_t len, bool notify, span::SpanId span = 0);

    std::uint64_t transfers() const { return transfers_; }
    std::uint64_t bytesSent() const { return bytesSent_; }

    /** Race-detector actor id of this engine's DMA reads (noActor in
     *  non-SHRIMP_CHECK builds). */
    std::uint32_t raceActor() const { return raceActor_; }

  private:
    const MachineConfig &cfg_;
    mem::Memory &mem_;
    sim::Bus &eisa_;
    Packetizer &packetizer_;

    std::uint64_t transfers_ = 0;
    std::uint64_t bytesSent_ = 0;
    std::uint32_t raceActor_ = 0xffffffffu; // check::noActor
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_DELIBERATE_UPDATE_ENGINE_HH
