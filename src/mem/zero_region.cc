#include "mem/zero_region.hh"

#include <cstring>
#include <new>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define SHRIMP_ZERO_REGION_MMAP 1
#endif

#include "base/logging.hh"

namespace shrimp::mem
{

namespace
{

/** One parked region: already re-zeroed, ready to hand out. */
struct ParkedRegion
{
    std::uint8_t *ptr;
    std::size_t size;
    bool mapped;
    std::vector<bool> touched;
    std::size_t residentBytes;
};

// Process-wide recycling pool (single-threaded, like the simulator).
// Bounded by the bytes its regions hold resident, so a one-off giant
// configuration doesn't pin memory forever; regions are parked and
// evicted in FIFO order.
constexpr std::size_t poolCapBytes = 256 * 1024 * 1024;
// analyze: allow(shared-mutable-static) — the pool hands regions from
// one Machine to the next on purpose; it holds no simulated state
std::vector<ParkedRegion> pool;
std::size_t poolResidentBytes = 0;

// Lifetime counters (never reset; drainPool keeps them so a stats dump
// after teardown still reflects the run).
// analyze: allow(shared-mutable-static) — process-lifetime totals
std::size_t poolReuses = 0;
std::size_t poolFresh = 0;
std::size_t poolRezeroed = 0;

/** The unit in which a mapping becomes resident. */
std::size_t
hostPageBytes()
{
#ifdef SHRIMP_ZERO_REGION_MMAP
    static const std::size_t bytes = std::size_t(::sysconf(_SC_PAGESIZE));
    return bytes;
#else
    return 4096;
#endif
}

void
releaseBytes(std::uint8_t *ptr, std::size_t size, bool mapped)
{
#ifdef SHRIMP_ZERO_REGION_MMAP
    if (mapped) {
        ::munmap(ptr, size);
        return;
    }
#endif
    (void)mapped;
    delete[] ptr;
}

} // namespace

ZeroRegion::ZeroRegion(std::size_t bytes) : size_(bytes)
{
    if (bytes == 0)
        return;
    // Oldest-first: a machine rebuilt in the order its predecessor was
    // torn down gets each node's own region back.
    for (auto it = pool.begin(); it != pool.end(); ++it) {
        if (it->size != bytes)
            continue;
        data_ = it->ptr;
        mapped_ = it->mapped;
        touched_ = std::move(it->touched);
        residentBytes_ = it->residentBytes;
        poolResidentBytes -= residentBytes_;
        pool.erase(it);
        ++poolReuses;
        return;
    }
    ++poolFresh;
#ifdef SHRIMP_ZERO_REGION_MMAP
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
        data_ = static_cast<std::uint8_t *>(p);
        mapped_ = true;
        touched_.resize((bytes + hostPageBytes() - 1) / hostPageBytes());
        return;
    }
#endif
    data_ = new std::uint8_t[bytes];
    std::memset(data_, 0, bytes);
    residentBytes_ = bytes;
}

void
ZeroRegion::rezero(std::size_t offset, std::size_t n)
{
    if (n == 0)
        return;
    std::memset(data_ + offset, 0, n);
    poolRezeroed += n;
    if (!mapped_)
        return;
    const std::size_t page = hostPageBytes();
    for (std::size_t p = offset / page; p <= (offset + n - 1) / page; ++p) {
        if (!touched_[p]) {
            touched_[p] = true;
            residentBytes_ += page;
        }
    }
}

ZeroRegion::~ZeroRegion()
{
    if (!data_)
        return;
    if (residentBytes_ > poolCapBytes) {
        releaseBytes(data_, size_, mapped_);
        return;
    }
    while (poolResidentBytes + residentBytes_ > poolCapBytes) {
        ParkedRegion &victim = pool.front();
        poolResidentBytes -= victim.residentBytes;
        releaseBytes(victim.ptr, victim.size, victim.mapped);
        pool.erase(pool.begin());
    }
    poolResidentBytes += residentBytes_;
    pool.push_back(ParkedRegion{data_, size_, mapped_, std::move(touched_),
                                residentBytes_});
}

std::size_t
ZeroRegion::poolReuseCount()
{
    return poolReuses;
}

std::size_t
ZeroRegion::poolFreshCount()
{
    return poolFresh;
}

std::size_t
ZeroRegion::poolBytesRezeroed()
{
    return poolRezeroed;
}

void
ZeroRegion::drainPool()
{
    for (const ParkedRegion &r : pool)
        releaseBytes(r.ptr, r.size, r.mapped);
    pool.clear();
    poolResidentBytes = 0;
}

} // namespace shrimp::mem
