/**
 * @file
 * Router: one iMRC of the routing backplane. Each router has four
 * outgoing mesh links (modelled as bandwidth resources) and an ejection
 * port delivering packets to the attached network interface. Each mesh
 * hop holds its link Bus's ledger for the per-hop routing latency plus
 * link serialization; the ledgers' FIFOs preserve per-sender order,
 * matching the iMRC's in-order guarantee (paper section 3.1).
 */

#ifndef SHRIMP_NET_ROUTER_HH
#define SHRIMP_NET_ROUTER_HH

#include <array>
#include <memory>

#include "base/config.hh"
#include "net/packet.hh"
#include "sim/bus.hh"
#include "sim/sync.hh"

namespace shrimp::net
{

/** Mesh output directions. */
enum class Dir : int
{
    East = 0,
    West = 1,
    North = 2,
    South = 3,
};

constexpr int numDirs = 4;

class Router
{
  public:
    Router(sim::EventQueue &queue, NodeId id, const MachineConfig &cfg);
    ~Router();

    NodeId id() const { return id_; }

    /** Mark direction @p d as connected (edge routers have fewer links). */
    void connect(Dir d);

    /** The Bus modelling the outgoing link @p d, or nullptr when
     *  unconnected. The mesh charges each hop's occupancy on it. */
    sim::Bus *linkBus(Dir d) { return links_[int(d)].get(); }

    /** Count one packet forwarded out of this router. */
    void noteForwarded() { ++forwarded_; }

    /** Deliver @p pkt to the node attached to this router. */
    void eject(Packet pkt) { ejectQueue_.send(std::move(pkt)); }

    /** The attached NIC drains this queue. */
    sim::Channel<Packet> &ejectQueue() { return ejectQueue_; }

    std::uint64_t forwarded() const { return forwarded_; }

  private:
    sim::EventQueue &queue_;
    NodeId id_;
    std::array<std::unique_ptr<sim::Bus>, numDirs> links_;
    double linkBw_;
    sim::Channel<Packet> ejectQueue_;
    std::uint64_t forwarded_ = 0;
};

} // namespace shrimp::net

#endif // SHRIMP_NET_ROUTER_HH
