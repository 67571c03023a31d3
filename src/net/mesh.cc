#include "net/mesh.hh"

#include <cstdio>

#include "base/logging.hh"
#include "base/span.hh"
#include "check/check.hh"
#include "sim/profile.hh"

namespace shrimp::net
{

Mesh::Mesh(sim::Simulator &sim, const MachineConfig &cfg)
    : sim_(sim), width_(cfg.meshWidth), height_(cfg.meshHeight),
      hopLatency_(cfg.hopLatency),
      linkBps_(units::bytesPerSec(cfg.linkBw)),
      stats_("mesh"),
      statPacketsInjected_(stats_.counter("packetsInjected")),
      statBytesInjected_(stats_.counter("bytesInjected")),
      statPacketsDelivered_(stats_.counter("packetsDelivered")),
      statHops_(stats_.distribution("hops"))
{
    int n = numNodes();
    routers_.reserve(n);
    routerTracks_.reserve(n);
    for (int i = 0; i < n; ++i) {
        routers_.push_back(
            std::make_unique<Router>(sim.queue(), NodeId(i), cfg));
        // snprintf into a fixed buffer: the operator+ chain this loop
        // used to run churned two heap strings per router per machine.
        char name[24];
        std::snprintf(name, sizeof(name), "router%d", i);
        routerTracks_.push_back(trace::track(name));
    }
    // Precomputed XY route tables: one pass over (at, dst) replaces the
    // per-hop coordinate arithmetic of nextDir()/neighbor()/hops() with
    // table lookups. 0xFF marks at == dst, -1 marks a mesh edge.
    nextDirTbl_.assign(std::size_t(n) * std::size_t(n), 0xFF);
    hopsTbl_.assign(std::size_t(n) * std::size_t(n), 0);
    neighborTbl_.assign(std::size_t(n) * numDirs, -1);
    for (int at = 0; at < n; ++at) {
        int xa = at % width_, ya = at / width_;
        if (xa + 1 < width_)
            neighborTbl_[linkIndex(NodeId(at), Dir::East)] = at + 1;
        if (xa > 0)
            neighborTbl_[linkIndex(NodeId(at), Dir::West)] = at - 1;
        if (ya + 1 < height_)
            neighborTbl_[linkIndex(NodeId(at), Dir::South)] = at + width_;
        if (ya > 0)
            neighborTbl_[linkIndex(NodeId(at), Dir::North)] = at - width_;
        std::size_t row = std::size_t(at) * std::size_t(n);
        for (int dst = 0; dst < n; ++dst) {
            if (dst == at)
                continue;
            int dx = dst % width_ - xa, dy = dst / width_ - ya;
            hopsTbl_[row + dst] =
                std::uint16_t(std::abs(dx) + std::abs(dy));
            // Dimension-ordered (XY) routing: move along X first.
            Dir d = dx > 0   ? Dir::East
                    : dx < 0 ? Dir::West
                    : dy > 0 ? Dir::South
                             : Dir::North;
            nextDirTbl_[row + dst] = std::uint8_t(d);
        }
    }
    // Wire up the grid: every interior edge gets a link in each direction.
    linkBuses_.assign(std::size_t(n) * numDirs, nullptr);
    for (NodeId i = 0; i < NodeId(n); ++i) {
        for (int d = 0; d < numDirs; ++d) {
            if (neighborTbl_[linkIndex(i, Dir(d))] >= 0) {
                routers_[i]->connect(Dir(d));
                linkBuses_[linkIndex(i, Dir(d))] =
                    routers_[i]->linkBus(Dir(d));
            }
        }
    }
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onMeshCreated(this));
}

Mesh::~Mesh()
{
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onMeshDestroyed(this));
}

NodeId
Mesh::neighbor(NodeId n, Dir d) const
{
    if (n >= NodeId(numNodes()))
        panic("mesh neighbor out of range");
    std::int32_t v = neighborTbl_[linkIndex(n, d)];
    if (v < 0)
        panic("mesh neighbor out of range");
    return NodeId(v);
}

Dir
Mesh::nextDir(NodeId at, NodeId dst) const
{
    if (at >= NodeId(numNodes()) || dst >= NodeId(numNodes()))
        panic("nextDir node out of range");
    std::uint8_t d = nextDirTbl_[std::size_t(at) * numNodes() + dst];
    if (d == 0xFF)
        panic("nextDir called with at == dst");
    return Dir(d);
}

int
Mesh::hops(NodeId a, NodeId b) const
{
    if (a >= NodeId(numNodes()) || b >= NodeId(numNodes()))
        panic("hops node out of range");
    return hopsTbl_[std::size_t(a) * numNodes() + b];
}

void
Mesh::inject(Packet pkt)
{
    if (pkt.src >= numNodes() || pkt.dst >= numNodes())
        panic("packet injected with out-of-range node id");
    // 1-based so seq 0 keeps meaning "unsequenced" everywhere.
    pkt.seq = ++nextSeq_;
    int h = hops(pkt.src, pkt.dst);
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onMeshInject(
        this, pkt.src, pkt.dst, h, pkt.seq));
    statPacketsInjected_ += 1;
    statBytesInjected_ += pkt.payload.size();
    statHops_.sample(double(h));
    sim::profile::Scope prof(sim::profile::Subsys::Mesh);
    ++inflight_;
    Flight *f = allocFlight();
    f->pkt = std::move(pkt);
    f->cur = f->pkt.src;
    // Each hop holds its link for the hop latency plus the wire time.
    f->occ = hopLatency_ + units::transferTime(f->pkt.wireBytes(), linkBps_);
    if (f->cur == f->pkt.dst)
        ejectFlight(f);
    else
        startHop(f);
}

// ---- hops ---------------------------------------------------------------
// One pooled event per hop, scheduled when the link is granted and
// firing after the hop's occupancy. A hop claims its link Bus's ledger:
// a free link is granted at once, a busy one parks the flight, and the
// release at hopDone hands the link to the oldest waiter through the
// ledger's zero-delay grant event. That is Bus::transfer's schedule
// event for event (DESIGN.md §14), which the golden trace hashes pin.

void
Mesh::startHop(Flight *f)
{
    f->link = linkIndex(
        f->cur, Dir(nextDirTbl_[std::size_t(f->cur) * numNodes() +
                                f->pkt.dst]));
    sim::Bus *bus = linkBuses_[f->link];
    if (!bus)
        panic("hop on unconnected mesh link");
    if (bus->ledger().claim(*f))
        grantLink(f);
}

void
Mesh::grantLink(Flight *f)
{
    linkBuses_[f->link]->beginTransfer(f->pkt.wireBytes());
    // Router attribution, like Bus::transfer's retag: the hop-done
    // event below (and anything it schedules) bills to the fabric.
    sim::profile::Scope prof(sim::profile::Subsys::Router);
    Mesh *m = this;
    sim_.queue().scheduleIn(f->occ, [m, f] { m->hopDone(f); });
}

void
Mesh::hopDone(Flight *f)
{
    sim::profile::retag(sim::profile::Subsys::Router);
    NodeId cur = f->cur;
    Router &rtr = *routers_[cur];
    sim::Bus &bus = *linkBuses_[f->link];
    bus.endTransfer(f->pkt.wireBytes(), f->occ);
    bus.ledger().release();
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onLinkTraverse(
        &rtr, cur, f->link % numDirs, f->pkt.src, f->pkt.seq));
    rtr.noteForwarded();
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onMeshHop(this, f->pkt.seq));
    span::step(f->pkt.spanId, routerTracks_[cur], "hop",
               sim_.queue().now());
    f->cur = NodeId(neighborTbl_[f->link]);
    if (f->cur == f->pkt.dst)
        ejectFlight(f);
    else
        startHop(f);
}

void
Mesh::ejectFlight(Flight *f)
{
    NodeId cur = f->cur;
    ++delivered_;
    statPacketsDelivered_ += 1;
    trace::instant(routerTracks_[cur], "pkt.ejected", sim_.queue().now());
    span::step(f->pkt.spanId, routerTracks_[cur], "pkt.eject",
               sim_.queue().now());
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onMeshEject(
        this, cur, f->pkt.src, f->pkt.dst, f->pkt.seq));
    routers_[cur]->eject(std::move(f->pkt));
    --inflight_;
    freeFlight(f);
}

Mesh::Flight *
Mesh::allocFlight()
{
    if (Flight *f = freeFlights_) {
        freeFlights_ = f->nextFree;
        f->nextFree = nullptr;
        return f;
    }
    flights_.push_back(std::make_unique<Flight>(*this));
    return flights_.back().get();
}

void
Mesh::freeFlight(Flight *f)
{
    f->link = -1;
    f->nextFree = freeFlights_;
    freeFlights_ = f;
}

} // namespace shrimp::net
