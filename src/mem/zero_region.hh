/**
 * @file
 * ZeroRegion: a zero-initialized byte region that materializes pages
 * lazily and is recycled process-wide. Node memories are large
 * (megabytes) but workloads touch a few dozen kilobytes; backing them
 * with an eagerly-zeroed vector makes every simulated machine pay the
 * full memset (and, once the host heap fragments, a fresh mmap +
 * page-fault storm) per construction. Mapping anonymous memory keeps
 * the guarantee — never-written bytes read as zero — while the kernel
 * zero-fills only the pages actually touched.
 *
 * Freed regions park in a process-wide pool instead of being unmapped:
 * a recycled mapping keeps its page tables, so a harness constructing
 * machines in a loop (host_perf, the ablation benches, the test suite)
 * faults each page once, not once per machine. Correctness relies on
 * the owner passing every range it wrote to rezero() before the region
 * is destroyed (Memory passes exactly the pages its write stamps mark);
 * bytes it never wrote still read as zero. Re-zeroing touches only
 * written pages, so a parked region holds resident what its owners
 * wrote and nothing more. The pool caps those resident bytes, not the
 * mapping sizes, and hands same-size regions back oldest-first: a
 * machine builds and tears down its nodes in the same order, so a
 * rebuilt machine gets each node's previous region back and a region's
 * resident pages keep one node's layout. The pool
 * is not thread-safe (the simulator is single-threaded); it falls back
 * to an eagerly-zeroed heap block where mmap is unavailable.
 */

#ifndef SHRIMP_MEM_ZERO_REGION_HH
#define SHRIMP_MEM_ZERO_REGION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shrimp::mem
{

class ZeroRegion
{
  public:
    explicit ZeroRegion(std::size_t bytes);
    ~ZeroRegion();

    ZeroRegion(const ZeroRegion &) = delete;
    ZeroRegion &operator=(const ZeroRegion &) = delete;

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

    /** Zero the @p n bytes at @p offset, which the owner wrote. The
     *  destructor parks the region as it stands, so an owner that
     *  skips a written range leaks its bytes into the region's next
     *  life. */
    void rezero(std::size_t offset, std::size_t n);

    /** Process-lifetime pool counters (surfaced in Machine stats as
     *  mem.zeropool.reuse / .fresh / .bytesRezeroed): constructions
     *  served from the pool, constructions that allocated fresh
     *  backing, and bytes passed to rezero(). */
    static std::size_t poolReuseCount();
    static std::size_t poolFreshCount();
    static std::size_t poolBytesRezeroed();

    /** Unmap every pooled region (tests; harmless mid-run). */
    static void drainPool();

  private:
    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;
    /** Host pages of the mapping ever re-zeroed, in any life: the
     *  pages a parked region holds resident. */
    std::vector<bool> touched_;
    std::size_t residentBytes_ = 0;
};

} // namespace shrimp::mem

#endif // SHRIMP_MEM_ZERO_REGION_HH
