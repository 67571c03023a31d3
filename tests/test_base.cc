/**
 * @file
 * Unit tests for the base module: logging, statistics, units, and the
 * machine configuration.
 */

#include <random>

#include <gtest/gtest.h>

#include "base/config.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/types.hh"

namespace shrimp
{
namespace
{

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom"), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, PanicMessagePreserved)
{
    try {
        panic("specific message");
        FAIL() << "panic returned";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "specific message");
    }
}

TEST(Logging, FormatProducesPrintfOutput)
{
    EXPECT_EQ(logging::format("x=%d s=%s", 42, "hi"), "x=42 s=hi");
}

TEST(Logging, AssertMacroPassesAndFails)
{
    EXPECT_NO_THROW(SHRIMP_ASSERT(1 + 1 == 2, "math"));
    EXPECT_THROW(SHRIMP_ASSERT(false, "always"), PanicError);
}

TEST(Stats, CounterIncrements)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, GroupRegistersAndQueries)
{
    stats::Group g("nic");
    g.counter("packets") += 7;
    EXPECT_EQ(g.get("packets"), 7u);
    EXPECT_EQ(g.get("absent"), 0u);
    EXPECT_EQ(g.name(), "nic");
}

TEST(Stats, CounterReferencesAreStable)
{
    stats::Group g("x");
    stats::Counter &a = g.counter("a");
    // append, not operator+: GCC 12 gives a false -Wrestrict at -O3.
    for (int i = 0; i < 100; ++i)
        g.counter(std::string("k").append(std::to_string(i)));
    ++a;
    EXPECT_EQ(g.get("a"), 1u);
}

TEST(Stats, LazyStatsRegisterAtFirstUse)
{
    stats::Group g("lazy");
    stats::LazyCounter sends(g, "sends");
    stats::LazyDistribution bytes(g, "bytes");
    // Until used, a lazy stat is in no dump, as with a lookup by name
    // at each use.
    EXPECT_TRUE(g.counters().empty());
    EXPECT_TRUE(g.distributions().empty());

    const std::uint64_t gen = stats::StatRegistry::global().generation();
    sends.get() += 2;
    EXPECT_EQ(stats::StatRegistry::global().generation(), gen + 1);
    sends.get() += 3;
    EXPECT_EQ(stats::StatRegistry::global().generation(), gen + 1);
    EXPECT_EQ(&sends.get(), &g.counter("sends"));
    EXPECT_EQ(g.get("sends"), 5u);

    bytes.get().sample(4.0);
    EXPECT_EQ(&bytes.get(), &g.distribution("bytes"));
    EXPECT_EQ(g.distributions().at("bytes").count(), 1u);
}

TEST(Stats, DistributionTracksMoments)
{
    stats::Distribution d;
    d.sample(1.0);
    d.sample(3.0);
    d.sample(2.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
}

TEST(Stats, GroupReset)
{
    stats::Group g("y");
    g.counter("c") += 5;
    g.distribution("d").sample(1.0);
    g.reset();
    EXPECT_EQ(g.get("c"), 0u);
}

TEST(Units, TransferTimeBasics)
{
    // 1 MB at 1 MB/s = 1 second.
    EXPECT_EQ(units::transferTime(1'000'000, 1.0), units::sec);
    // Zero bytes take zero time.
    EXPECT_EQ(units::transferTime(0, 100.0), 0u);
    // Rounds up.
    EXPECT_EQ(units::transferTime(1, 1000.0), 1u);
}

TEST(Units, TransferTimeScalesWithBandwidth)
{
    Tick slow = units::transferTime(4096, 10.0);
    Tick fast = units::transferTime(4096, 20.0);
    EXPECT_NEAR(double(slow), 2.0 * double(fast), 2.0);
}

TEST(Units, BytesPerSecIsExactForEveryCalibratedRate)
{
    // All the MB/s figures MachineConfig carries are exact multiples of
    // 1 byte/s, so the double -> integer conversion must be lossless.
    EXPECT_EQ(units::bytesPerSec(1.0), 1'000'000u);
    EXPECT_EQ(units::bytesPerSec(21.0), 21'000'000u);
    EXPECT_EQ(units::bytesPerSec(24.5), 24'500'000u);
    EXPECT_EQ(units::bytesPerSec(25.0), 25'000'000u);
    EXPECT_EQ(units::bytesPerSec(30.0), 30'000'000u);
    EXPECT_EQ(units::bytesPerSec(175.0), 175'000'000u);
}

TEST(Units, TransferTimePinsTheRoundingRule)
{
    // The one rounding rule: ceil(bytes * 1e9 / bytesPerSec), exact in
    // 128-bit integers. Pin one value per calibrated rate; any change
    // here shifts every simulated figure.
    EXPECT_EQ(units::transferTime(std::size_t(1), 175.0), 6u); // 5.71..
    EXPECT_EQ(units::transferTime(std::size_t(528), 175.0), 3018u);
    EXPECT_EQ(units::transferTime(std::size_t(4096), 24.5), 167184u);
    EXPECT_EQ(units::transferTime(std::size_t(49), 24.5), 2000u); // exact
    EXPECT_EQ(units::transferTime(std::size_t(4096), 1.0), 4'096'000u);
    MachineConfig cfg;
    // The CPU copy-bandwidth paths run through the same rule.
    EXPECT_EQ(units::transferTime(std::size_t(1024), cfg.copyBwWriteBack),
              34134u); // 34133.33..
    EXPECT_EQ(units::transferTime(std::size_t(1024),
                                  cfg.copyBwWriteThrough),
              48762u); // 48761.90..
    EXPECT_EQ(units::transferTime(std::size_t(1024), cfg.copyBwUncached),
              40960u); // exact
}

/** The rounding rule evaluated in 128 bits throughout. */
Tick
wideTransferTime(std::uint64_t bytes, std::uint64_t bps)
{
    if (bytes == 0 || bps == 0)
        return 0;
    unsigned __int128 num =
        (unsigned __int128)bytes * 1'000'000'000u + (bps - 1);
    return Tick(num / bps);
}

TEST(Units, TransferTimeFastPathMatchesTheWideFormula)
{
    static_assert(units::transferTime(std::size_t(49),
                                      std::uint64_t(24'500'000)) == 2000);
    // The overflow edge: for each rate, the largest byte count whose
    // numerator bytes * 1e9 + bps - 1 fits in 64 bits, and its
    // neighbours on both sides. At the largest rates the add overflows
    // where the multiply alone would not.
    const std::uint64_t rates[] = {1,           2,
                                   999,         24'500'000,
                                   175'000'000, 1'000'000'000,
                                   1ull << 63,  ~0ull};
    for (std::uint64_t bps : rates) {
        const std::uint64_t edge = (~0ull - (bps - 1)) / 1'000'000'000u;
        const unsigned __int128 top = ~0ull;
        ASSERT_LE((unsigned __int128)edge * 1'000'000'000u + (bps - 1), top);
        ASSERT_GT((unsigned __int128)(edge + 1) * 1'000'000'000u + (bps - 1),
                  top);
        for (std::uint64_t b = edge < 2 ? 0 : edge - 2; b <= edge + 2; ++b)
            EXPECT_EQ(units::transferTime(std::size_t(b), bps),
                      wideTransferTime(b, bps))
                << b << " bytes at " << bps << " B/s";
    }
    // Seeded random points at every magnitude of bytes and rate.
    std::mt19937_64 rng(20);
    for (int i = 0; i < 100'000; ++i) {
        std::uint64_t bytes = rng() >> (rng() % 64);
        std::uint64_t bps = rng() >> (rng() % 64);
        ASSERT_EQ(units::transferTime(std::size_t(bytes), bps),
                  wideTransferTime(bytes, bps))
            << bytes << " bytes at " << bps << " B/s";
    }
}

TEST(Config, DefaultValidates)
{
    MachineConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, NumNodesFollowsMesh)
{
    MachineConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    EXPECT_EQ(cfg.numNodes(), 16);
}

TEST(Config, RejectsBadPageSize)
{
    MachineConfig cfg;
    cfg.pageBytes = 3000; // not a power of two
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, RejectsUnalignedMemorySize)
{
    MachineConfig cfg;
    cfg.nodeMemBytes = cfg.pageBytes * 10 + 1;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, RejectsOversizedPacket)
{
    MachineConfig cfg;
    cfg.maxPacketBytes = cfg.pageBytes * 2;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, RejectsCombineLimitAbovePacketSize)
{
    MachineConfig cfg;
    cfg.auCombineLimit = cfg.maxPacketBytes + 4;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, RejectsNonPositiveBandwidth)
{
    MachineConfig cfg;
    cfg.eisaDmaBw = 0.0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, CopyBwSelectsByCacheMode)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.copyBw(CacheMode::WriteBack), cfg.copyBwWriteBack);
    EXPECT_EQ(cfg.copyBw(CacheMode::WriteThrough),
              cfg.copyBwWriteThrough);
    EXPECT_EQ(cfg.copyBw(CacheMode::Uncached), cfg.copyBwUncached);
}

TEST(Config, WriteThroughCopiesSlowerThanWriteBack)
{
    // The calibration depends on this ordering (AU's "extra" copy).
    MachineConfig cfg;
    EXPECT_LT(cfg.copyBwWriteThrough, cfg.copyBwWriteBack);
}

} // namespace
} // namespace shrimp
