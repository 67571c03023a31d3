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
 * the owner reporting its written extent via noteDirty(): only that
 * prefix is re-zeroed on release; pages beyond it were never written
 * and still read as zero. The pool is not thread-safe (the simulator
 * is single-threaded); it falls back to an eagerly-zeroed heap block
 * where mmap is unavailable.
 */

#ifndef SHRIMP_MEM_ZERO_REGION_HH
#define SHRIMP_MEM_ZERO_REGION_HH

#include <cstddef>
#include <cstdint>

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

    /** Record that bytes of [0, bytes) may have been written. The
     *  destructor re-zeroes exactly this prefix before recycling the
     *  mapping; an owner that skips the call for some write path would
     *  leak its bytes into the region's next life. */
    void
    noteDirty(std::size_t bytes)
    {
        if (bytes > dirty_)
            dirty_ = bytes;
    }

    /** Pooled mappings held for reuse (tests). */
    static std::size_t pooledBytes();

    /** Process-lifetime pool counters (surfaced in Machine stats as
     *  mem.zeropool.reuse / .fresh / .bytesRezeroed): constructions
     *  served from the pool, constructions that allocated fresh
     *  backing, and bytes re-zeroed when parking dirty regions. */
    static std::size_t poolReuseCount();
    static std::size_t poolFreshCount();
    static std::size_t poolBytesRezeroed();

    /** Unmap every pooled region (tests; harmless mid-run). */
    static void drainPool();

  private:
    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t dirty_ = 0;
    bool mapped_ = false;
};

} // namespace shrimp::mem

#endif // SHRIMP_MEM_ZERO_REGION_HH
