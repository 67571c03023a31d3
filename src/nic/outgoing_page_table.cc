#include "nic/outgoing_page_table.hh"

#include "base/logging.hh"

namespace shrimp::nic
{

OutgoingPageTable::OutgoingPageTable(std::size_t num_local_pages)
    : pageEntries_(num_local_pages)
{
}

void
OutgoingPageTable::bindPage(PageNum local_page, const OptEntry &entry)
{
    if (local_page >= pageEntries_.size())
        panic("OPT bindPage: page out of range");
    if (!entry.valid)
        panic("OPT bindPage: entry must be valid");
    if (!pageEntries_[local_page].valid)
        ++numBindings_;
    pageEntries_[local_page] = entry;
}

void
OutgoingPageTable::unbindPage(PageNum local_page)
{
    if (local_page >= pageEntries_.size())
        panic("OPT unbindPage: page out of range");
    if (pageEntries_[local_page].valid) {
        pageEntries_[local_page].valid = false;
        --numBindings_;
    }
}

const OptEntry *
OutgoingPageTable::lookupPage(PageNum local_page) const
{
    if (local_page >= pageEntries_.size())
        return nullptr;
    const OptEntry &e = pageEntries_[local_page];
    return e.valid ? &e : nullptr;
}

std::uint32_t
OutgoingPageTable::allocSlot(const OptEntry &entry)
{
    if (!entry.valid)
        panic("OPT allocSlot: entry must be valid");
    slots_.push_back(entry);
    ++liveSlots_;
    return std::uint32_t(slots_.size() - 1);
}

void
OutgoingPageTable::freeSlot(std::uint32_t slot)
{
    if (slot >= slots_.size() || !slots_[slot].valid)
        panic("OPT freeSlot: no such slot");
    slots_[slot].valid = false;
    --liveSlots_;
}

} // namespace shrimp::nic
