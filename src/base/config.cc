#include "base/config.hh"

#include <cstdlib>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "base/logging.hh"
#include "base/trace.hh"

namespace shrimp
{

void
applyEnvOverrides()
{
    // Benchmarks build one simulated machine per measured point, each
    // holding tens of MB of node memory. Left to its own heuristics,
    // glibc can serve those buffers with per-machine mmap/munmap, which
    // refaults every page on every measurement (~6x wall clock on the
    // figure benches). Pin the threshold so they stay in the arena.
    // analyze: allow(shared-mutable-static) — host-allocator tuning is
    // per-process and applied once, before any Machine exists
    static bool alloc_tuned = false;
    if (!alloc_tuned) {
        alloc_tuned = true;
#ifdef __GLIBC__
        mallopt(M_MMAP_THRESHOLD, 64 << 20);
#endif
    }
    if (const char *lvl = std::getenv("SHRIMP_LOG_LEVEL")) {
        char *end = nullptr;
        long v = std::strtol(lvl, &end, 10);
        if (end != lvl && *end == '\0' && v >= 0 && v <= 3)
            logging::verbosity = int(v);
        else
            warn(logging::format("ignoring bad SHRIMP_LOG_LEVEL=%s", lvl));
    }
    if (const char *path = std::getenv("SHRIMP_TRACE")) {
        if (*path && trace::outputPath().empty())
            trace::setOutputPath(path);
    }
    if (const char *s = std::getenv("SHRIMP_STATS")) {
        if (*s)
            trace::setStatsDumpRequested(true);
    }
}

double
MachineConfig::copyBw(CacheMode mode) const
{
    switch (mode) {
      case CacheMode::WriteBack:
        return copyBwWriteBack;
      case CacheMode::WriteThrough:
        return copyBwWriteThrough;
      case CacheMode::Uncached:
        return copyBwUncached;
    }
    return copyBwWriteBack;
}

void
MachineConfig::validate() const
{
    if (meshWidth < 1 || meshHeight < 1)
        fatal("mesh dimensions must be at least 1x1");
    if (pageBytes == 0 || (pageBytes & (pageBytes - 1)) != 0)
        fatal("pageBytes must be a nonzero power of two");
    if (nodeMemBytes % pageBytes != 0)
        fatal("nodeMemBytes must be a multiple of pageBytes");
    if (maxPacketBytes == 0 || maxPacketBytes > pageBytes)
        fatal("maxPacketBytes must be in (0, pageBytes]");
    if (auCombineLimit == 0 || auCombineLimit > maxPacketBytes)
        fatal("auCombineLimit must be in (0, maxPacketBytes]");
    if (eisaDmaBw <= 0 || linkBw <= 0 || etherBw <= 0)
        fatal("bandwidths must be positive");
    if (copyBwWriteBack <= 0 || copyBwWriteThrough <= 0 ||
        copyBwUncached <= 0) {
        fatal("copy bandwidths must be positive");
    }
}

} // namespace shrimp
