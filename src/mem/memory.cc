#include "mem/memory.hh"

#include <bit>
#include <cstring>

#include "base/logging.hh"
#include "check/check.hh"
#include "check/race.hh"

namespace shrimp::mem
{

Memory::Memory(sim::EventQueue &queue, std::size_t bytes,
               std::size_t page_bytes, std::string name)
    : queue_(queue), data_(bytes), pageBytes_(page_bytes),
      name_(std::move(name)), writeWaiters_(queue)
{
    if (page_bytes == 0 || bytes % page_bytes != 0)
        fatal("memory size must be a multiple of the page size");
    if (!std::has_single_bit(page_bytes))
        fatal("page size must be a power of two");
    pageShift_ = unsigned(std::countr_zero(page_bytes));
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onMemoryCreated(
        this, name_, pageBytes_));
}

Memory::~Memory()
{
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onMemoryDestroyed(
        this));
    // Hand the region back clean: re-zero each run of stamped pages.
    const std::size_t pages = pageSeq_.size();
    for (std::size_t p = 0; p < pages;) {
        if (pageSeq_[p] == 0) {
            ++p;
            continue;
        }
        std::size_t end = p + 1;
        while (end < pages && pageSeq_[end] != 0)
            ++end;
        data_.rezero(p << pageShift_, (end - p) << pageShift_);
        p = end;
    }
}

void
Memory::checkRange(PAddr addr, std::size_t n) const
{
    if (std::size_t(addr) + n > data_.size())
        panic(logging::format("%s: physical access [0x%x, +%zu) out of "
                              "range (%zu bytes)",
                              name_.c_str(), addr, n, data_.size()));
}

void
Memory::write(PAddr addr, const void *src, std::size_t n)
{
    checkRange(addr, n);
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onWrite(
        this, addr, n, queue_.now()));
    if (n > 0)
        std::memcpy(data_.data() + addr, src, n);
    ++writeCount_;
    if (n > 0)
        stampPages(addr, n);
    notifyWrite(addr, n);
}

void
Memory::read(PAddr addr, void *dst, std::size_t n) const
{
    checkRange(addr, n);
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onRead(
        this, addr, n, queue_.now()));
    if (n > 0)
        std::memcpy(dst, data_.data() + addr, n);
}

#ifdef SHRIMP_CHECK
// Unchecked builds define these inline in the header; here the generic
// paths run so every word access reaches the race detector's hooks.
std::uint32_t
Memory::read32(PAddr addr) const
{
    std::uint32_t v;
    read(addr, &v, sizeof(v));
    return v;
}

void
Memory::write32(PAddr addr, std::uint32_t value)
{
    write(addr, &value, sizeof(value));
}
#endif // SHRIMP_CHECK

PAddr
Memory::allocFrames(std::size_t pages)
{
    std::size_t bytes = pages * pageBytes_;
    if (std::size_t(nextFrame_) + bytes > data_.size())
        fatal(name_ + ": out of physical memory");
    PAddr base = nextFrame_;
    nextFrame_ += PAddr(bytes);
    return base;
}

std::size_t
Memory::freeFrames() const
{
    return (data_.size() - nextFrame_) / pageBytes_;
}

} // namespace shrimp::mem
