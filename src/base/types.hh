/**
 * @file
 * Fundamental types shared across the simulator: the simulated clock,
 * addresses, node identifiers, and unit helpers.
 */

#ifndef SHRIMP_BASE_TYPES_HH
#define SHRIMP_BASE_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace shrimp
{

/** Simulated time, in nanoseconds. */
using Tick = std::uint64_t;

/** Largest representable tick; used as "never". */
constexpr Tick maxTick = ~Tick(0);

/** Virtual address within a process address space. */
using VAddr = std::uint32_t;

/** Physical address within a node's memory. */
using PAddr = std::uint32_t;

/** Node identifier (index into the machine's node array). */
using NodeId = std::uint16_t;

/** An invalid node id. */
constexpr NodeId invalidNode = NodeId(~0);

/** Page number (virtual or physical, depending on context). */
using PageNum = std::uint32_t;

namespace units
{
constexpr Tick ns = 1;
constexpr Tick us = 1000;
constexpr Tick ms = 1000 * 1000;
constexpr Tick sec = Tick(1000) * 1000 * 1000;

constexpr std::size_t KiB = 1024;
constexpr std::size_t MiB = 1024 * 1024;

/** A bandwidth quoted in 10^6 bytes/s (the paper's unit) as a whole
 *  number of bytes per second. Every calibrated rate in MachineConfig
 *  (1.0, 21.0, 24.5, 25.0, 30.0, 175.0) is an exact multiple of
 *  0.000001 MB/s, so the conversion is exact. */
constexpr std::uint64_t
bytesPerSec(double mbPerSec)
{
    return std::uint64_t(mbPerSec * 1e6 + 0.5);
}

/**
 * Ticks needed to move @p bytes at @p bps bytes per second.
 *
 * Rounding rule (the only one in the simulator): a transfer occupies
 * ceil(bytes * 10^9 / bps) integer nanoseconds, computed exactly: in
 * 64 bits when bytes * 10^9 + bps - 1 fits (every transfer the
 * simulator makes), else in 128 bits. Rounding up means a transfer
 * never finishes early, and the error is bounded by 1 ns per
 * transaction no matter how transfers are split or batched.
 */
constexpr Tick
transferTime(std::size_t bytes, std::uint64_t bps)
{
    if (bytes == 0 || bps == 0)
        return 0;
    std::uint64_t num;
    if (!__builtin_mul_overflow(std::uint64_t(bytes),
                                std::uint64_t(1'000'000'000u), &num) &&
        !__builtin_add_overflow(num, bps - 1, &num)) [[likely]]
        return num / bps;
    unsigned __int128 wide =
        (unsigned __int128)bytes * 1'000'000'000u + (bps - 1);
    return Tick(wide / bps);
}

/** Convenience overload for rates held as MB/s config doubles. */
constexpr Tick
transferTime(std::size_t bytes, double mbPerSec)
{
    if (mbPerSec <= 0.0)
        return 0;
    return transferTime(bytes, bytesPerSec(mbPerSec));
}
} // namespace units

} // namespace shrimp

#endif // SHRIMP_BASE_TYPES_HH
