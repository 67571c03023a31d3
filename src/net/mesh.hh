/**
 * @file
 * Mesh: the Intel routing backplane — a 2-D mesh of iMRC routers with
 * deadlock-free, oblivious wormhole routing (dimension-ordered XY) that
 * preserves the order of packets from each sender to each receiver.
 * Node i sits at (i % width, i / width).
 *
 * Packets move as pooled Flight records, one event per hop (DESIGN.md
 * §14). A hop claims its directed link's Bus ledger through the waiter
 * node embedded in the flight, so a contended link queues flights in
 * arrival order exactly as contending Bus::transfer calls queue, and it
 * brackets the link's occupancy with Bus::beginTransfer/endTransfer, so
 * checker, trace and stats see every link as a bus carrying one
 * transfer per hop.
 */

#ifndef SHRIMP_NET_MESH_HH
#define SHRIMP_NET_MESH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/config.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "net/packet.hh"
#include "net/router.hh"
#include "sim/bus.hh"
#include "sim/simulator.hh"

namespace shrimp::net
{

class Mesh
{
  public:
    Mesh(sim::Simulator &sim, const MachineConfig &cfg);
    ~Mesh();

    int width() const { return width_; }
    int height() const { return height_; }
    int numNodes() const { return width_ * height_; }

    /** Grid coordinates of a node. */
    int xOf(NodeId n) const { return n % width_; }
    int yOf(NodeId n) const { return n / width_; }

    /** Neighbour of @p n in direction @p d; panics at a mesh edge. */
    NodeId neighbor(NodeId n, Dir d) const;

    /** Next output direction under XY routing from @p at toward @p dst. */
    Dir nextDir(NodeId at, NodeId dst) const;

    /** Number of router-to-router hops between two nodes. */
    int hops(NodeId a, NodeId b) const;

    /**
     * Inject a packet at its source router. Returns immediately; the
     * packet traverses the mesh asynchronously and is eventually placed
     * on the destination router's eject queue. Packets injected at the
     * same source toward the same destination stay in order.
     */
    void inject(Packet pkt);

    Router &router(NodeId n) { return *routers_.at(n); }

    std::uint64_t packetsDelivered() const { return delivered_; }

    /** Packets injected but not yet ejected (tests). */
    std::uint64_t packetsInFlight() const { return inflight_; }

  private:
    /**
     * Per-packet state, free-listed so steady traffic allocates nothing.
     * Scheduled hop events capture one Flight pointer; the Flight owns
     * the packet until ejection. Its Waiter base is the claim it parks
     * in a busy link's ledger.
     */
    struct Flight : sim::Ledger::Waiter
    {
        explicit Flight(Mesh &m) : Waiter{&granted}, mesh(m) {}

        /** Ledger grant: the link is this flight's from now. */
        static void
        granted(sim::Ledger::Waiter &w)
        {
            auto &f = static_cast<Flight &>(w);
            f.mesh.grantLink(&f);
        }

        Mesh &mesh;
        Packet pkt;
        NodeId cur = 0;     //!< router the packet is at / leaving
        Tick occ = 0;       //!< per-hop link occupancy (uniform links)
        int link = -1;      //!< directed-link index while on a link
        Flight *nextFree = nullptr;
    };

    // Claim the next link, start/finish one hop on it, eject at the
    // destination.
    void startHop(Flight *f);
    void grantLink(Flight *f);
    void hopDone(Flight *f);
    void ejectFlight(Flight *f);

    Flight *allocFlight();
    void freeFlight(Flight *f);

    int linkIndex(NodeId at, Dir d) const { return int(at) * numDirs + int(d); }

    sim::Simulator &sim_;
    int width_;
    int height_;
    Tick hopLatency_;
    std::uint64_t linkBps_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t inflight_ = 0;

    // Precomputed XY route tables (built once in the ctor): next
    // direction and hop count per (at, dst) pair, neighbor per
    // (node, dir). 0xFF / -1 mark "at == dst" / mesh edges.
    std::vector<std::uint8_t> nextDirTbl_;
    std::vector<std::uint16_t> hopsTbl_;
    std::vector<std::int32_t> neighborTbl_;

    // Link bus per directed-link index (nullptr at mesh edges) and the
    // flight pool.
    std::vector<sim::Bus *> linkBuses_;
    std::vector<std::unique_ptr<Flight>> flights_;
    Flight *freeFlights_ = nullptr;

    stats::Group stats_;
    std::vector<trace::TrackId> routerTracks_;
    // Per-packet path; stat lookups hoisted to construction.
    stats::Counter &statPacketsInjected_;
    stats::Counter &statBytesInjected_;
    stats::Counter &statPacketsDelivered_;
    stats::Distribution &statHops_;
};

} // namespace shrimp::net

#endif // SHRIMP_NET_MESH_HH
