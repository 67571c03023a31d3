#include "node/ether.hh"

#include "base/logging.hh"

namespace shrimp::node
{

EtherNet::EtherNet(sim::Simulator &sim, const MachineConfig &cfg,
                   int num_nodes)
    : sim_(sim), cfg_(cfg), numNodes_(num_nodes),
      segment_(sim.queue(), cfg.etherBw, "ether"),
      nextPort_(num_nodes, 1024)
{
}

void
EtherNet::send(NodeId from, std::uint16_t from_port, NodeId to,
               std::uint16_t port, std::vector<std::uint8_t> data)
{
    if (int(from) >= numNodes_ || int(to) >= numNodes_)
        panic("ether frame with out-of-range node id");
    EtherFrame frame{from, from_port, std::move(data)};
    sim_.spawn(deliver(to, port, std::move(frame)));
}

sim::Task<>
EtherNet::deliver(NodeId to, std::uint16_t port, EtherFrame frame)
{
    // One shared 10 Mb/s segment: serialization plus protocol-stack
    // latency per frame.
    co_await segment_.transfer(frame.data.size() + 64, cfg_.etherLatency);
    ++delivered_;
    rxQueue(to, port).send(std::move(frame));
}

sim::Channel<EtherFrame> &
EtherNet::rxQueue(NodeId node, std::uint16_t port)
{
    std::uint64_t key = (std::uint64_t(node) << 16) | port;
    auto &q = rx_[key];
    if (!q)
        q = std::make_unique<sim::Channel<EtherFrame>>(sim_.queue());
    return *q;
}

std::uint16_t
EtherNet::allocPort(NodeId node)
{
    return nextPort_.at(node)++;
}

} // namespace shrimp::node
