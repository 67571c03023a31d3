/**
 * @file
 * AddressSpace: a user process's page table. Maps virtual pages to
 * physical frames of the node memory and records the per-page cache mode
 * (write-back / write-through / uncached) that process page tables carry
 * on the real system (paper section 3.1).
 *
 * Allocations are page-granular and physically contiguous (the SHRIMP
 * daemons arrange this on the real system so receive buffers have stable
 * physical addresses).
 */

#ifndef SHRIMP_MEM_ADDRESS_SPACE_HH
#define SHRIMP_MEM_ADDRESS_SPACE_HH

#include <cstddef>
#include <vector>

#include "base/config.hh"
#include "base/types.hh"
#include "mem/memory.hh"

namespace shrimp::mem
{

class AddressSpace
{
  public:
    explicit AddressSpace(Memory &memory);

    /**
     * Allocate @p bytes (rounded up to whole pages) of fresh memory.
     * @return the virtual address of the region (page aligned).
     */
    VAddr alloc(std::size_t bytes, CacheMode mode = CacheMode::WriteBack);

    /** True if every byte of [addr, addr+len) is mapped. */
    bool mapped(VAddr addr, std::size_t len) const;

    /** Translate one virtual address; panics when unmapped. */
    PAddr
    translate(VAddr addr) const
    {
        return entry(addr).frame + PAddr(addr & (pageBytes() - 1));
    }

    /**
     * Translate a range; panics when unmapped. Because allocations are
     * physically contiguous this is valid for any range inside a single
     * allocation.
     */
    PAddr translateRange(VAddr addr, std::size_t len) const;

    /** Cache mode of the page containing @p addr. */
    CacheMode
    cacheMode(VAddr addr) const
    {
        return entry(addr).mode;
    }

    /** Change the cache mode of all pages covering [addr, addr+len). */
    void setCacheMode(VAddr addr, std::size_t len, CacheMode mode);

    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }
    std::size_t pageBytes() const { return mem_.pageBytes(); }

  private:
    struct PageEntry
    {
        PAddr frame;
        CacheMode mode;
        bool valid;
    };

    /**
     * The page table is a dense vector indexed by virtual page number:
     * every translate/cacheMode on the data path is one bounds test and
     * one array load. Allocations grow the virtual space contiguously
     * from page 1, so the vector has no meaningful holes.
     */
    const PageEntry &
    entry(VAddr addr) const
    {
        PageNum vpn = vpnOf(addr);
        if (vpn >= pages_.size() || !pages_[vpn].valid) [[unlikely]]
            faultUnmapped(addr);
        return pages_[vpn];
    }

    /** Virtual page of byte @p addr (64-bit so range ends can't wrap). */
    PageNum
    vpnOf(std::uint64_t addr) const
    {
        return PageNum(addr >> mem_.pageShift());
    }

    /** Virtual page of the last byte of [addr, addr+len), len 0 as 1. */
    PageNum
    lastVpnOf(VAddr addr, std::size_t len) const
    {
        return vpnOf(std::uint64_t(addr) + (len ? len : 1) - 1);
    }

    [[noreturn]] void faultUnmapped(VAddr addr) const;

    Memory &mem_;
    std::vector<PageEntry> pages_;
    VAddr nextVAddr_;
};

} // namespace shrimp::mem

#endif // SHRIMP_MEM_ADDRESS_SPACE_HH
