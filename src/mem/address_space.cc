#include "mem/address_space.hh"

#include "base/logging.hh"
#include "check/check.hh"
#include "check/race.hh"

namespace shrimp::mem
{

AddressSpace::AddressSpace(Memory &memory)
    : mem_(memory), nextVAddr_(VAddr(memory.pageBytes()))
{
}

VAddr
AddressSpace::alloc(std::size_t bytes, CacheMode mode)
{
    if (bytes == 0)
        fatal("cannot allocate zero bytes");
    std::size_t page = pageBytes();
    std::size_t npages = (bytes + page - 1) / page;
    PAddr frame = mem_.allocFrames(npages);
    VAddr base = nextVAddr_;
    PageNum first = vpnOf(base);
    if (first + npages > pages_.size())
        pages_.resize(first + npages, PageEntry{0, CacheMode::WriteBack,
                                                false});
    for (std::size_t i = 0; i < npages; ++i) {
        pages_[first + i] =
            PageEntry{PAddr(frame + i * page), mode, true};
        SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onCacheMode(
            &mem_, pages_[first + i].frame, mode, mem_.queue().now()));
    }
    nextVAddr_ += VAddr(npages * page);
    return base;
}

void
AddressSpace::faultUnmapped(VAddr addr) const
{
    panic(logging::format("unmapped virtual address 0x%x", addr));
}

bool
AddressSpace::mapped(VAddr addr, std::size_t len) const
{
    PageNum first = vpnOf(addr);
    PageNum last = lastVpnOf(addr, len);
    if (last >= pages_.size())
        return false;
    for (PageNum vpn = first; vpn <= last; ++vpn) {
        if (!pages_[vpn].valid)
            return false;
    }
    return true;
}

PAddr
AddressSpace::translateRange(VAddr addr, std::size_t len) const
{
    if (!mapped(addr, len))
        panic(logging::format("unmapped virtual range [0x%x, +%zu)",
                              addr, len));
    PAddr base = translate(addr);
    // Verify physical contiguity across the range (holds by construction
    // for single allocations; catches accidental cross-allocation use).
    PageNum first = vpnOf(addr);
    PageNum last = lastVpnOf(addr, len);
    for (PageNum vpn = first; vpn + 1 <= last; ++vpn) {
        PAddr a = pages_[vpn].frame;
        PAddr b = pages_[vpn + 1].frame;
        if (b != a + PAddr(pageBytes()))
            panic("virtual range is not physically contiguous");
    }
    return base;
}

void
AddressSpace::setCacheMode(VAddr addr, std::size_t len, CacheMode mode)
{
    if (!mapped(addr, len))
        panic("setCacheMode on unmapped range");
    PageNum first = vpnOf(addr);
    PageNum last = lastVpnOf(addr, len);
    for (PageNum vpn = first; vpn <= last; ++vpn) {
        pages_[vpn].mode = mode;
        SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onCacheMode(
            &mem_, pages_[vpn].frame, mode, mem_.queue().now()));
    }
}

} // namespace shrimp::mem
