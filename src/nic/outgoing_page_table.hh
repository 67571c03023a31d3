/**
 * @file
 * OutgoingPageTable (OPT): maintains bindings from local memory to
 * remote destination pages (paper section 3.2).
 *
 * Two kinds of entries exist, matching the two transfer strategies:
 *  - Automatic-update entries are indexed directly by local physical
 *    page number; the snoop logic consults them on every memory-bus
 *    write. Each carries per-page configuration: combining enable,
 *    hardware flush timer enable, and the destination-interrupt flag.
 *  - Import slots describe an imported remote buffer and are referenced
 *    by the deliberate-update initiation sequence to select the
 *    destination. Slot ids are handed out in sequence and never
 *    reused, so the table is a vector indexed by id: a freed slot's
 *    entry stays behind, marked invalid, and every deliberate-update
 *    send looks its slot up by index.
 */

#ifndef SHRIMP_NIC_OUTGOING_PAGE_TABLE_HH
#define SHRIMP_NIC_OUTGOING_PAGE_TABLE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace shrimp::nic
{

struct OptEntry
{
    bool valid = false;

    /** Destination node of the mapped window. */
    NodeId destNode = invalidNode;

    /** Destination physical base address of the mapped window. */
    PAddr destBase = 0;

    /** Length of the mapped window in bytes. */
    std::size_t len = 0;

    /** Combine consecutive automatic-update writes into one packet. */
    bool combinable = true;

    /** Flush a pending combined packet on hardware timeout. */
    bool timerEnabled = true;

    /** Sender-specified interrupt flag: packets from this entry request
     *  a notification at the destination. */
    bool destInterrupt = false;
};

class OutgoingPageTable
{
  public:
    explicit OutgoingPageTable(std::size_t num_local_pages);

    // --- automatic-update bindings (indexed by local physical page) ---

    /** Install an AU binding for @p local_page. */
    void bindPage(PageNum local_page, const OptEntry &entry);

    /** Remove the AU binding for @p local_page. */
    void unbindPage(PageNum local_page);

    /** Snoop-path lookup. @return entry or nullptr if unbound. */
    const OptEntry *lookupPage(PageNum local_page) const;

    /** Number of valid AU bindings. */
    std::size_t numBindings() const { return numBindings_; }

    // --- import slots (deliberate-update destinations) -----------------

    /** Allocate a slot describing an imported buffer; ids run 0, 1,
     *  2, ... and a freed id is never handed out again. */
    std::uint32_t allocSlot(const OptEntry &entry);

    /** Free an import slot (panics if it is not live). */
    void freeSlot(std::uint32_t slot);

    /** Look up an import slot; nullptr if freed or never allocated. */
    const OptEntry *
    slot(std::uint32_t slot) const
    {
        if (slot >= slots_.size() || !slots_[slot].valid)
            return nullptr;
        return &slots_[slot];
    }

    /** Number of live (allocated, not freed) import slots. */
    std::size_t numSlots() const { return liveSlots_; }

  private:
    std::vector<OptEntry> pageEntries_;
    std::size_t numBindings_ = 0;
    std::vector<OptEntry> slots_; //!< index = slot id; freed: !valid
    std::size_t liveSlots_ = 0;
};

} // namespace shrimp::nic

#endif // SHRIMP_NIC_OUTGOING_PAGE_TABLE_HH
