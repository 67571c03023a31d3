#include "workload.hh"

#include <cstring>

namespace shrimp::bench
{

// ---- the anchor table ------------------------------------------------------
// One row per paper number a workload's paper_err_pct reads. Latencies
// are one-way unless the row says round trip, as the figures report them.

const Anchor anchorAu4{
    "au_4b_oneway", 4.75, "us",
    "raw VMMC AU-1copy one-word one-way latency (write-through)",
    "EXPERIMENTS.md: Calibration anchors (paper section 3.4)"};

const Anchor anchorDu4{
    "du_4b_oneway", 7.6, "us",
    "raw VMMC DU-0copy one-word one-way latency",
    "EXPERIMENTS.md: Calibration anchors (paper section 3.4)"};

const Anchor anchorNxOverhead{
    "nx_overhead", 6.0, "us",
    "NX AU 4 B one-way minus raw AU 4 B one-way (\"just over 6 us\")",
    "EXPERIMENTS.md: Figure 4 - NX latency and bandwidth"};

const Anchor anchorSockOverhead{
    "sock_overhead", 13.0, "us",
    "socket 4 B one-way minus raw AU 4 B one-way (\"13 us\")",
    "EXPERIMENTS.md: Figure 7 - socket latency and bandwidth"};

const Anchor anchorVrpcNull{
    "vrpc_null_rt", 29.0, "us", "null VRPC round trip",
    "EXPERIMENTS.md: Figure 5 - VRPC latency and bandwidth"};

const Anchor anchorSrpcNull{
    "srpc_null_rt", 9.5, "us", "null SHRIMP RPC round trip",
    "EXPERIMENTS.md: Figure 8 - compatible vs specialized RPC"};

const Anchor anchorDu0Bandwidth{
    "du0_64k_bw", 23.0, "MB/s",
    "raw VMMC DU-0copy bandwidth of a 64 KB transfer (\"almost 23 MB/s\")",
    "EXPERIMENTS.md: Calibration anchors (paper section 3.4)"};

const Anchor anchorNxAuMesh{
    "nx_au_4b_oneway_8x8", 10.75, "us",
    "NX AU 4 B one-way between adjacent ranks of the 8x8 mesh "
    "(hardware 4.75 + 6.0 us of buffer management)",
    "EXPERIMENTS.md: Figure 4 - NX latency and bandwidth"};

const std::vector<const Anchor *> &
anchorTable()
{
    static const std::vector<const Anchor *> table{
        &anchorAu4,      &anchorDu4,          &anchorNxOverhead,
        &anchorSockOverhead, &anchorVrpcNull, &anchorSrpcNull,
        &anchorDu0Bandwidth, &anchorNxAuMesh};
    return table;
}

// ---- Workload --------------------------------------------------------------

std::vector<vmmc::System *>
Workload::systems() const
{
    std::vector<vmmc::System *> out;
    for (const auto &s : systems_)
        out.push_back(s.get());
    return out;
}

vmmc::System &
Workload::addSystem(int mesh_w, int mesh_h)
{
    MachineConfig cfg;
    cfg.meshWidth = mesh_w;
    cfg.meshHeight = mesh_h;
    systems_.push_back(std::make_unique<vmmc::System>(cfg));
    return *systems_.back();
}

void
Workload::runSetup(vmmc::System &sys)
{
    sys.sim().runAll();
}

void
Workload::drain(vmmc::System &sys)
{
    SpanMark m = spanBegin(sys.sim());
    std::uint64_t h0 = hostNow();
    Tick t0 = sys.sim().now();
    events_ += sys.sim().runAll();
    simNs_ += sys.sim().now() - t0;
    drainHostNs_ += double(hostNow() - h0);
    spanEnd(Call::Drain, m, sys.sim());
}

void
Workload::anchorSample(std::uint64_t op, const Anchor &a, double v)
{
    if (op < prefixOps())
        anchorSamples_[&a].push_back(v);
}

double
Workload::anchorMedian(const Anchor &a) const
{
    auto it = anchorSamples_.find(&a);
    return it == anchorSamples_.end() ? 0.0 : median(it->second);
}

bool
Workload::matches(node::Process &proc, VAddr addr, const std::uint8_t *expect,
                  std::size_t n)
{
    if (peekBuf_.size() < n)
        peekBuf_.resize(n);
    proc.debugPeek(addr, peekBuf_.data(), n);
    return std::memcmp(peekBuf_.data(), expect, n) == 0;
}

} // namespace shrimp::bench
