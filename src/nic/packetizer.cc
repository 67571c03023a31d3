#include "nic/packetizer.hh"

#include <cstring>
#include <utility>

#include "base/logging.hh"
#include "base/span.hh"
#include "check/check.hh"
#include "check/race.hh"
#include "sim/profile.hh"

namespace shrimp::nic
{

Packetizer::Packetizer(sim::Simulator &sim, const MachineConfig &cfg,
                       NodeId self, sim::Channel<net::Packet> &out_fifo)
    : sim_(sim), cfg_(cfg), self_(self), outFifo_(out_fifo),
      stats_("node" + std::to_string(self) + ".nic.out"),
      track_(trace::track(stats_.name())),
      statPacketsFormed_(stats_.counter("packetsFormed")),
      statDuPackets_(stats_.counter("duPackets")),
      statBytesFormed_(stats_.counter("bytesFormed")),
      statWritesCombined_(stats_.counter("writesCombined")),
      statTimerFlushes_(stats_.counter("timerFlushes")),
      statPacketBytes_(stats_.distribution("packetBytes"))
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onPacketizerCreated(this));
    SHRIMP_CHECK_HOOK(
        raceActor_ = check::RaceDetector::instance().registerActor(
            "node" + std::to_string(self) + ".snoop",
            check::ActorKind::Snoop));
}

void
Packetizer::auWrite(const OptEntry &e, PAddr dest_addr, const void *data,
                    std::size_t len)
{
    if (len == 0)
        return;

    // The snoop logic captures the store off the memory bus in the same
    // cycle the CPU makes it: a hardware handoff, not a race.
    SHRIMP_CHECK_HOOK(check::RaceDetector::instance().handoff(
        check::RaceDetector::instance().currentActor(), raceActor_));

    if (pending_) {
        bool consecutive = pending_->dst == e.destNode &&
                           pending_->destAddr +
                               PAddr(pending_->payload.size()) == dest_addr;
        bool fits = pending_->payload.size() + len <= cfg_.auCombineLimit;
        if (e.combinable && consecutive && fits &&
            pending_->senderInterrupt == e.destInterrupt) {
            SHRIMP_CHECK_HOOK(check::SimChecker::instance().onShadowAppend(
                this, e.destNode, dest_addr, data, len));
            const auto *bytes = static_cast<const std::uint8_t *>(data);
            // The first store that extends a packet reserves its limit,
            // where 4-byte XDR stores would reallocate at 8, 16, 32 and
            // 64 bytes; most packets never grow and keep their size.
            pending_->payload.reserve(cfg_.auCombineLimit);
            pending_->payload.insert(pending_->payload.end(), bytes,
                                     bytes + len);
            ++writesCombined_;
            statWritesCombined_ += 1;
            armTimer();
            if (pending_->payload.size() >= cfg_.auCombineLimit)
                flushPending();
            return;
        }
        // Non-consecutive (or non-combinable) update: the pending packet
        // goes out first so data leaves in program order.
        flushPending();
    }

    startPending(e, dest_addr, data, len);

    if (!e.combinable || pending_->payload.size() >= cfg_.auCombineLimit) {
        flushPending();
    } else if (e.timerEnabled) {
        armTimer();
    }
}

void
Packetizer::startPending(const OptEntry &e, PAddr dest_addr,
                         const void *data, std::size_t len)
{
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onShadowStart(
        this, e.destNode, dest_addr, data, len));
    net::Packet pkt;
    pkt.src = self_;
    pkt.dst = e.destNode;
    pkt.destAddr = dest_addr;
    pkt.senderInterrupt = e.destInterrupt;
    // A sampled automatic-update message stages its span before the
    // stores; the packet that the first store opens claims it, and
    // every write combined into the packet joins the same parent span.
    pkt.spanId = span::takeStaged();
    span::step(pkt.spanId, track_, "pkt.start", sim_.queue().now());
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    pkt.payload.assign(bytes, bytes + len);
    pending_ = std::move(pkt);
    pendingTimerEnabled_ = e.timerEnabled;
}

void
Packetizer::armTimer()
{
    if (!pendingTimerEnabled_)
        return;
    // A re-arm restarts the timeout: the earlier timer goes, so the
    // queue holds at most one timer event per packetizer.
    cancelTimer();
    // The flush timer belongs to the packetizer even though it is armed
    // from inside the CPU's store (Scope, not retag: the rest of the
    // store stays attributed to the CPU).
    sim::profile::Scope prof(sim::profile::Subsys::Packetizer);
    timer_ = sim_.queue().scheduleIn(cfg_.auCombineTimeout, [this] {
        timer_ = {};
        // Every flush cancels the timer, so one that fires has a packet.
        SHRIMP_ASSERT(pending_, "packetizer timer fired with no packet");
        ++timerFlushes_;
        statTimerFlushes_ += 1;
        SHRIMP_DEBUG("node%d packetizer: timer flush at %llu ns",
                     int(self_), (unsigned long long)sim_.queue().now());
        flushPending();
    });
}

void
Packetizer::cancelTimer()
{
    if (timer_)
        sim_.queue().cancel(std::exchange(timer_, {}));
}

void
Packetizer::flushPending()
{
    if (!pending_)
        return;
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onShadowFlush(this, *pending_));
    // Stamp the snoop path's clock: whoever receives this packet is
    // ordered after every store that went into it.
    SHRIMP_CHECK_HOOK(pending_->raceClock =
                          check::RaceDetector::instance().snapshot(
                              raceActor_));
    cancelTimer();
    ++packetsFormed_;
    statPacketsFormed_ += 1;
    statBytesFormed_ += pending_->payload.size();
    statPacketBytes_.sample(double(pending_->payload.size()));
    trace::instant(track_, "pkt.formed", sim_.queue().now());
    span::step(pending_->spanId, track_, "pkt.flush", sim_.queue().now());
    outFifo_.send(std::move(*pending_));
    pending_.reset();
}

void
Packetizer::duPacket(net::Packet pkt)
{
    // Deliberate-update data must not overtake earlier automatic updates.
    flushPending();
    pkt.src = self_;
    ++packetsFormed_;
    statPacketsFormed_ += 1;
    statDuPackets_ += 1;
    statBytesFormed_ += pkt.payload.size();
    statPacketBytes_.sample(double(pkt.payload.size()));
    trace::instant(track_, "pkt.formed", sim_.queue().now());
    span::step(pkt.spanId, track_, "pkt.flush", sim_.queue().now());
    outFifo_.send(std::move(pkt));
}

} // namespace shrimp::nic
