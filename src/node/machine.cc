#include "node/machine.hh"

#include <ostream>

#include "base/config.hh"
#include "mem/zero_region.hh"

namespace shrimp::node
{

Machine::Machine(MachineConfig cfg)
    : cfg_((applyEnvOverrides(), cfg.validate(), std::move(cfg))),
      mesh_(sim_, cfg_), ether_(sim_, cfg_, cfg_.numNodes())
{
    int n = cfg_.numNodes();
    nodes_.reserve(n);
    for (NodeId i = 0; i < NodeId(n); ++i) {
        nodes_.push_back(std::make_unique<Node>(
            sim_, cfg_, i, mesh_.router(i).ejectQueue()));
    }
    for (auto &nd : nodes_) {
        // Injection hook: register the packet as in flight at the
        // destination NIC (for unexport drains), then hand it to the
        // mesh.
        nd->nic().setInjector([this](net::Packet pkt) {
            nodes_.at(pkt.dst)->nic().incoming().noteInflight(pkt.destAddr);
            mesh_.inject(std::move(pkt));
        });
        nd->setEther(&ether_);
        nd->start();
    }
}

void
Machine::dumpStats(std::ostream &os)
{
    os << "mesh.packetsDelivered " << mesh_.packetsDelivered() << "\n";
    os << "ether.framesDelivered " << ether_.framesDelivered() << "\n";
    // Mapping-pool effectiveness (process-wide): back-to-back machine
    // lifetimes should reuse parked regions, not fault fresh pages.
    os << "mem.zeropool.reuse " << mem::ZeroRegion::poolReuseCount()
       << "\n";
    os << "mem.zeropool.fresh " << mem::ZeroRegion::poolFreshCount()
       << "\n";
    os << "mem.zeropool.bytesRezeroed "
       << mem::ZeroRegion::poolBytesRezeroed() << "\n";
    for (auto &nd : nodes_) {
        std::string p = "node" + std::to_string(nd->id()) + ".";
        auto &nic = nd->nic();
        os << p << "nic.packetsInjected " << nic.packetsInjected()
           << "\n";
        os << p << "nic.packetsFormed "
           << nic.packetizer().packetsFormed() << "\n";
        os << p << "nic.writesCombined "
           << nic.packetizer().writesCombined() << "\n";
        os << p << "nic.timerFlushes "
           << nic.packetizer().timerFlushes() << "\n";
        os << p << "nic.duTransfers " << nic.duEngine().transfers()
           << "\n";
        os << p << "nic.duBytes " << nic.duEngine().bytesSent() << "\n";
        os << p << "nic.packetsDelivered "
           << nic.incoming().packetsDelivered() << "\n";
        os << p << "nic.bytesDelivered "
           << nic.incoming().bytesDelivered() << "\n";
        os << p << "nic.packetsDropped "
           << nic.incoming().packetsDropped() << "\n";
        os << p << "nic.notifications "
           << nic.incoming().notifications() << "\n";
        os << p << "nic.freezes " << nic.incoming().freezes() << "\n";
        os << p << "eisa.bytes " << nd->eisa().bytesMoved() << "\n";
        os << p << "eisa.transactions " << nd->eisa().transactions()
           << "\n";
        os << p << "eisa.busyNs " << nd->eisa().busyTime() << "\n";
        os << p << "cpu.busyNs " << nd->cpu().busyTime() << "\n";
        os << p << "mem.writes " << nd->memory().writeCount() << "\n";
    }
}

} // namespace shrimp::node
