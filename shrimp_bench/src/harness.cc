#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>

#include "base/stats.hh"
#include "mem/zero_region.hh"

namespace shrimp::bench
{

Tracer *gTracer = nullptr;

std::uint64_t
hostNow()
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch())
                             .count());
}

namespace
{
constexpr int probeRounds = 8000;
constexpr int probeCopies = 4;
constexpr std::size_t probeWords = 64 * 1024 / 8;
std::uint64_t probeSrc[probeWords], probeDst[probeWords];
volatile std::uint64_t probeSink;
} // namespace

std::uint64_t
probeNs()
{
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    auto step = [](std::uint64_t &x) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        asm volatile("" : "+r"(x)); // keep every lane in a register
    };
    std::uint64_t t0 = hostNow();
    for (int i = 0; i < probeRounds; ++i) {
        step(a), step(b), step(c), step(d);
        step(e), step(f), step(g), step(h);
    }
    for (int k = 0; k < probeCopies; ++k) {
        std::memcpy(probeDst, probeSrc, sizeof(probeDst));
        asm volatile("" ::: "memory"); // the copy is not dead
        probeSrc[k] ^= probeDst[k + 1];
    }
    std::uint64_t t1 = hostNow();
    probeSink = a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
    return t1 - t0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

PayloadPool::PayloadPool(std::uint64_t seed, std::size_t bytes)
    : bytes_(bytes)
{
    Rng rng(mix(seed, 0x9a11));
    for (std::size_t i = 0; i + 8 <= bytes_.size(); i += 8) {
        std::uint64_t w = rng.next() & 0x7fffffff7fffffffull;
        std::memcpy(&bytes_[i], &w, 8);
    }
}

const std::uint8_t *
PayloadPool::slice(std::uint64_t key, std::size_t len) const
{
    std::size_t words = (bytes_.size() - len) / 4 + 1;
    return &bytes_[(mix(key) % words) * 4];
}

Samples::Samples(std::size_t capacity) : v_(capacity)
{
    // Write every page now (a zero fill may stay unbacked until first
    // use), so the run's resident size does not grow with its length.
    std::fill(v_.begin(), v_.end(), -1.0);
}

void
Samples::add(double v)
{
    ++seen_;
    if (kept_ < v_.size()) {
        v_[kept_++] = v;
    } else if (!v_.empty()) {
        std::uint64_t slot = rng_.below(seen_);
        if (slot < v_.size())
            v_[slot] = v;
    }
}

double
Samples::quantile(double q) const
{
    if (kept_ == 0)
        return 0.0;
    // Sort in place: a sorted copy would be a transient allocation that
    // grows with the run and shows in the peak resident size.
    std::sort(v_.begin(), v_.begin() + std::ptrdiff_t(kept_));
    double pos = q * double(kept_ - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, kept_ - 1);
    return v_[lo] + (v_[hi] - v_[lo]) * (pos - double(lo));
}

namespace
{

// A bucket is the top 16 bits of the value's IEEE float: exponent and 7
// mantissa bits. The table covers float exponents minExp..maxExp-1.
constexpr int subBits = 7;
constexpr int minExp = -4;
constexpr int maxExp = 24;
constexpr std::uint32_t firstKey = std::uint32_t(127 + minExp) << subBits;
constexpr std::size_t numBuckets = std::size_t(maxExp - minExp) << subBits;

std::size_t
bucketOf(double v)
{
    float f = float(std::clamp(v, std::ldexp(1.0, minExp),
                               std::ldexp(1.0, maxExp) * 0.999));
    return (std::bit_cast<std::uint32_t>(f) >> (23 - subBits)) - firstKey;
}

double
bucketLow(std::size_t b)
{
    return std::bit_cast<float>(std::uint32_t(b + firstKey) << (23 - subBits));
}

} // namespace

Histogram::Histogram() : counts_(numBuckets, 0) {}

void
Histogram::add(double v)
{
    ++counts_[bucketOf(v)];
    ++n_;
}

Histogram &
Histogram::operator+=(const Histogram &o)
{
    for (std::size_t b = 0; b < numBuckets; ++b)
        counts_[b] += o.counts_[b];
    n_ += o.n_;
    return *this;
}

void
Histogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    n_ = 0;
}

double
Histogram::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    double rank = q * double(n_ - 1);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < numBuckets; ++b) {
        std::uint32_t c = counts_[b];
        if (c == 0 || double(below + c) <= rank) {
            below += c;
            continue;
        }
        double at = (rank - double(below) + 0.5) / double(c);
        return bucketLow(b) + (bucketLow(b + 1) - bucketLow(b)) * at;
    }
    return bucketLow(numBuckets);
}

const char *
callName(Call c)
{
    switch (c) {
      case Call::VmmcSend: return "vmmc.send";
      case Call::VmmcAuCopy: return "vmmc.au_copy";
      case Call::VmmcWait: return "vmmc.wait";
      case Call::VmmcExport: return "vmmc.export";
      case Call::VmmcImport: return "vmmc.import";
      case Call::NxCsend: return "nx.csend";
      case Call::NxCrecv: return "nx.crecv";
      case Call::NxInit: return "nx.init";
      case Call::SockSend: return "sock.send";
      case Call::SockRecv: return "sock.recv";
      case Call::SockConnect: return "sock.connect";
      case Call::RpcCall: return "rpc.call";
      case Call::SrpcCall: return "srpc.call";
      case Call::Drain: return "sim.drain";
      case Call::NumCalls: break;
    }
    return "?";
}

namespace
{
constexpr std::size_t keptSpans = 1 << 14;
constexpr std::size_t callSamples = 1 << 14;
} // namespace

Tracer::Tracer(bool host_spans) : hostSpans_(host_spans)
{
    current_.reserve(256);
    kept_.reserve(keptSpans);
    for (std::size_t i = 0; i < numCalls; ++i) {
        hostUs_[i] = Samples(callSamples);
        simUs_[i] = Samples(callSamples);
    }
}

void
Tracer::beginOp(std::uint64_t op)
{
    op_ = op;
    current_.clear();
    opHost0_ = hostNow();
}

void
Tracer::record(Call c, std::uint64_t host0, std::uint64_t host1, Tick sim0,
               Tick sim1)
{
    std::size_t i = std::size_t(c);
    ++calls_[i];
    simUs_[i].add(double(sim1 - sim0) / 1e3);
    if (hostSpans_ || c == Call::Drain)
        hostUs_[i].add(double(host1 - host0) / 1e3);
    Span s{op_, c, host0, host1, sim0, sim1};
    current_.push_back(s);
    if (kept_.size() < keptSpans)
        kept_.push_back(s);
}

void
Tracer::endOp()
{
    std::uint64_t host1 = hostNow();
    ++ops_;
    rootNs_ += double(host1 - opHost0_);
    if (kept_.size() < keptSpans)
        kept_.push_back(Span{op_, Call::NumCalls, opHost0_, host1, 0, 0});

    // Exclusive split of [opHost0_, host1): sweep the span boundaries;
    // between two boundaries the time belongs to the latest-started
    // span still open, or to the root when none is.
    std::vector<std::uint64_t> edges;
    edges.reserve(current_.size() * 2);
    for (const Span &s : current_) {
        if (!hostSpans_ && s.call != Call::Drain)
            continue;
        edges.push_back(s.host0);
        edges.push_back(s.host1);
    }
    std::sort(edges.begin(), edges.end());
    std::uint64_t prev = opHost0_;
    for (std::uint64_t edge : edges) {
        std::uint64_t t = std::clamp(edge, opHost0_, host1);
        double dt = double(t - prev);
        const Span *inner = nullptr;
        for (const Span &s : current_) {
            if ((!hostSpans_ && s.call != Call::Drain) || s.host0 > prev ||
                s.host1 < t)
                continue;
            if (!inner || s.host0 >= inner->host0)
                inner = &s;
        }
        if (inner)
            selfNs_[std::size_t(inner->call)] += dt;
        else
            rootSelfNs_ += dt;
        prev = t;
    }
    rootSelfNs_ += double(host1 - prev);
}

Counters &
Counters::operator+=(const Counters &o)
{
    for (std::size_t i = 0; i < NumCtr; ++i)
        v[i] += o.v[i];
    return *this;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters d;
    for (std::size_t i = 0; i < NumCtr; ++i)
        d.v[i] = v[i] - o.v[i];
    return d;
}

namespace
{

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

double
counter(const stats::Group &g, const char *name)
{
    return double(g.get(name));
}

} // namespace

Counters
snapshot(const std::vector<vmmc::System *> &systems)
{
    Counters c;
    for (const stats::Group *g : stats::StatRegistry::global().groups()) {
        const std::string &n = g->name();
        if (endsWith(n, ".cpu")) {
            c[CpuUses] += counter(*g, "uses");
            c[CpuBusyNs] += counter(*g, "busyNs");
        } else if (endsWith(n, ".nic.out")) {
            c[PktFormed] += counter(*g, "packetsFormed");
            c[DuPkts] += counter(*g, "duPackets");
            c[AuCombined] += counter(*g, "writesCombined");
            c[TimerFlushes] += counter(*g, "timerFlushes");
        } else if (endsWith(n, ".nic")) {
            c[OptLookups] += counter(*g, "optLookups");
            c[OptHits] += counter(*g, "optHits");
        } else if (endsWith(n, ".nic.in")) {
            c[InBytes] += counter(*g, "bytesDelivered");
        } else if (endsWith(n, ".eisa")) {
            c[EisaBusyNs] += counter(*g, "occupancyNs");
        } else if (n == "mesh") {
            c[MeshPackets] += counter(*g, "packetsInjected");
            auto it = g->distributions().find("hops");
            if (it != g->distributions().end()) {
                c[HopsCount] += double(it->second.count());
                c[HopsSum] += it->second.sum();
            }
        } else if (n.rfind("nx.rank", 0) == 0) {
            c[NxScouts] += counter(*g, "scouts");
        }
    }
    c[ZeroFresh] = double(mem::ZeroRegion::poolFreshCount());
    c[ZeroReuse] = double(mem::ZeroRegion::poolReuseCount());
    c[ZeroRezeroed] = double(mem::ZeroRegion::poolBytesRezeroed());
    for (vmmc::System *s : systems)
        c[NodeSimNs] += double(s->sim().now()) * double(s->numNodes());
    for (std::size_t i = 0; i < sim::profile::numSubsys; ++i)
        c[ProfNs + i] =
            double(sim::profile::row(sim::profile::Subsys(i)).hostNs);
    return c;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace shrimp::bench
