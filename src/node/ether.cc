#include "node/ether.hh"

#include "base/logging.hh"

namespace shrimp::node
{

EtherNet::EtherNet(sim::Simulator &sim, const MachineConfig &cfg,
                   int num_nodes)
    : sim_(sim), cfg_(cfg), numNodes_(num_nodes),
      segment_(sim.queue(), cfg.etherBw, "ether"),
      nextPort_(num_nodes, firstEphemeralPort)
{
}

void
EtherNet::send(NodeId from, std::uint16_t from_port, NodeId to,
               std::uint16_t port, std::vector<std::uint8_t> data)
{
    if (int(from) >= numNodes_ || int(to) >= numNodes_)
        panic("ether frame with out-of-range node id");
    sim_.spawn(
        deliver(EtherFrame{from, from_port, to, port, std::move(data)}));
}

sim::Task<>
EtherNet::deliver(EtherFrame frame)
{
    // One shared 10 Mb/s segment: serialization plus protocol-stack
    // latency per frame.
    co_await segment_.transfer(frame.data.size() + 64, cfg_.etherLatency);
    ++delivered_;
    sim::Channel<EtherFrame> &rx = rxQueue(frame.dst, frame.dstPort);
    rx.send(std::move(frame));
}

sim::Channel<EtherFrame> &
EtherNet::rxQueue(NodeId node, std::uint16_t port)
{
    auto &q = rx_[queueKey(node, port)];
    if (!q)
        q = std::make_unique<sim::Channel<EtherFrame>>(sim_.queue());
    return *q;
}

sim::Task<EtherFrame>
EtherNet::recvOnce(NodeId node, std::uint16_t port)
{
    EtherFrame frame = co_await rxQueue(node, port).recv();
    rx_.erase(queueKey(node, port));
    co_return frame;
}

sim::Task<HelloFrame>
EtherNet::listen(NodeId node, std::uint16_t port, std::uint32_t magic)
{
    sim::Channel<EtherFrame> &rx = rxQueue(node, port);
    for (;;) {
        EtherFrame frame = co_await rx.recv();
        const std::optional<Hello> hello = decode<Hello>(frame);
        if (hello && hello->magic == magic)
            co_return HelloFrame{std::move(frame), *hello};
        warn(logging::format("node %d port %u: dropped a malformed "
                             "hello (%zu bytes) from node %d",
                             int(node), unsigned(port), frame.data.size(),
                             int(frame.src)));
    }
}

std::uint16_t
EtherNet::allocPort(NodeId node)
{
    // Round-robin over the ephemeral range, skipping ports still in use
    // (listeners, replies not yet taken).
    std::uint16_t &next = nextPort_.at(node);
    for (unsigned tries = 0; tries <= 0xffffu - firstEphemeralPort;
         ++tries) {
        std::uint16_t port = next;
        next = next == 0xffff ? firstEphemeralPort : std::uint16_t(next + 1);
        if (!rx_.contains(queueKey(node, port)))
            return port;
    }
    fatal(logging::format("node %d: no free Ethernet port", int(node)));
}

} // namespace shrimp::node
