/**
 * @file
 * Memory: one node's physical memory. Holds real bytes (protocols in the
 * libraries move actual data, which tests verify end-to-end) and supports
 * write watchpoints: a task can sleep until a write lands in the byte
 * range it is polling, then re-check the flag. The range is the only
 * wake rule: a write wakes exactly the waiters whose ranges it overlaps.
 * A per-page write sequence (writtenSince) lets a scanner that caches
 * what it read skip re-reading unchanged pages.
 * Timing is charged by the components that access memory (CPU, DMA
 * engines), not here.
 */

#ifndef SHRIMP_MEM_MEMORY_HH
#define SHRIMP_MEM_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/types.hh"
#include "mem/zero_region.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace shrimp::mem
{

class Memory
{
  public:
    Memory(sim::EventQueue &queue, std::size_t bytes, std::size_t page_bytes,
           std::string name = "mem");
    ~Memory();

    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    const std::string &name() const { return name_; }
    sim::EventQueue &queue() { return queue_; }

    std::size_t size() const { return data_.size(); }
    std::size_t pageBytes() const { return pageBytes_; }
    /** log2(pageBytes()): page sizes are powers of two, so page math
     *  is shifts and masks. */
    unsigned pageShift() const { return pageShift_; }
    PageNum pageOf(PAddr addr) const { return addr >> pageShift_; }
    std::size_t numPages() const { return data_.size() / pageBytes_; }

    /** Copy @p n bytes into memory at @p addr and wake write-watchers. */
    void write(PAddr addr, const void *src, std::size_t n);

    /** Copy @p n bytes out of memory at @p addr. */
    void read(PAddr addr, void *dst, std::size_t n) const;

    std::uint32_t read32(PAddr addr) const;
    void write32(PAddr addr, std::uint32_t value);

    /**
     * Suspend until a write overlapping [addr, addr+n) lands. Users poll
     * a predicate over the bytes they read:
     *   while (!flagSet()) co_await m.waitWrite(flag, 4);
     * A write elsewhere never wakes them.
     */
    sim::AddrCondition::WaitAwaiter
    waitWrite(PAddr addr, std::size_t n)
    {
        return writeWaiters_.wait(addr, std::uint64_t(addr) + n);
    }

    /**
     * Allocate @p pages physically-contiguous page frames.
     * The SHRIMP daemons arrange physically-contiguous communication
     * buffers on the real system; the simulator simply never fragments.
     * @return physical address of the first frame.
     */
    PAddr allocFrames(std::size_t pages);

    /** Frames still unallocated. */
    std::size_t freeFrames() const;

    std::uint64_t writeCount() const { return writeCount_; }

    /**
     * True if a write touching any page of [addr, addr+n) came after the
     * writeCount() value @p seq. Every write stamps the pages it touches
     * with its writeCount(), so a poller that caches what it read from a
     * range, recording writeCount() right after the read, can tell
     * whether the cache is still exact without re-reading the bytes.
     */
    bool
    writtenSince(PAddr addr, std::size_t n, std::uint64_t seq) const
    {
        if (n == 0)
            return false;
        PageNum end = pageOf(PAddr(addr + n - 1)) + 1;
        if (end > pageSeq_.size())
            end = PageNum(pageSeq_.size());
        for (PageNum p = pageOf(addr); p < end; ++p) {
            if (pageSeq_[p] > seq)
                return true;
        }
        return false;
    }

  private:
    void checkRange(PAddr addr, std::size_t n) const;

    /** Stamp the pages of [addr, addr+n), n > 0, with writeCount_. The
     *  table grows to the highest page written, so memories whose
     *  upper pages stay untouched pay nothing for them. A nonzero stamp
     *  is also the record that the page was written: the destructor
     *  re-zeroes exactly those pages before the region is recycled. */
    void
    stampPages(PAddr addr, std::size_t n)
    {
        PageNum last = pageOf(PAddr(addr + n - 1));
        if (last >= pageSeq_.size()) [[unlikely]]
            pageSeq_.resize(std::size_t(last) + 1, 0);
        for (PageNum p = pageOf(addr); p <= last; ++p)
            pageSeq_[p] = writeCount_;
    }

    /** Wake pollers watching bytes of [addr, addr+n); no-op when nobody
     *  is waiting, so un-watched writes pay nothing for the mechanism. */
    void
    notifyWrite(PAddr addr, std::size_t n)
    {
        if (writeWaiters_.hasWaiters())
            writeWaiters_.notifyRange(addr, std::uint64_t(addr) + n);
    }

    sim::EventQueue &queue_;
    ZeroRegion data_;
    std::size_t pageBytes_;
    unsigned pageShift_ = 0; //!< log2(pageBytes_): pageOf runs per write
    std::string name_;
    sim::AddrCondition writeWaiters_;
    PAddr nextFrame_ = 0;
    std::uint64_t writeCount_ = 0;
    std::vector<std::uint64_t> pageSeq_; //!< per page: last writeCount_,
                                         //!< 0 if never written
};

#ifndef SHRIMP_CHECK
// Word-access fast path: the flag words the libraries poll and publish
// are all accessed through these, so in unchecked builds they skip the
// generic read()/write() double dispatch (range check + hook + memcpy
// call) for a bounds test and a fixed-size copy. Checked builds keep the
// generic path so the race detector sees every access.

inline std::uint32_t
Memory::read32(PAddr addr) const
{
    if (std::size_t(addr) + sizeof(std::uint32_t) > data_.size())
        [[unlikely]]
        checkRange(addr, sizeof(std::uint32_t));
    std::uint32_t v;
    std::memcpy(&v, data_.data() + addr, sizeof(v));
    return v;
}

inline void
Memory::write32(PAddr addr, std::uint32_t value)
{
    if (std::size_t(addr) + sizeof(value) > data_.size()) [[unlikely]]
        checkRange(addr, sizeof(value));
    std::memcpy(data_.data() + addr, &value, sizeof(value));
    ++writeCount_;
    stampPages(addr, sizeof(value));
    notifyWrite(addr, sizeof(value));
}
#endif // !SHRIMP_CHECK

} // namespace shrimp::mem

#endif // SHRIMP_MEM_MEMORY_HH
