#include "nic/incoming_dma_engine.hh"

#include "base/logging.hh"
#include "base/span.hh"
#include "check/check.hh"
#include "check/race.hh"
#include "sim/profile.hh"

namespace shrimp::nic
{

IncomingDmaEngine::IncomingDmaEngine(sim::Simulator &sim,
                                     const MachineConfig &cfg, NodeId self,
                                     mem::Memory &memory, sim::Bus &eisa,
                                     IncomingPageTable &ipt,
                                     sim::Channel<net::Packet> &input)
    : sim_(sim), cfg_(cfg), self_(self), mem_(memory), eisa_(eisa),
      ipt_(ipt), input_(input), unfreezeCond_(sim.queue()),
      drainCond_(sim.queue()),
      stats_("node" + std::to_string(self) + ".nic.in"),
      track_(trace::track(stats_.name())),
      statFreezes_(stats_.counter("freezes")),
      statPacketsDropped_(stats_.counter("packetsDropped")),
      statPacketsDelivered_(stats_.counter("packetsDelivered")),
      statBytesDelivered_(stats_.counter("bytesDelivered")),
      statNotifications_(stats_.counter("notifications"))
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onIncomingEngineCreated(this));
    SHRIMP_CHECK_HOOK(
        raceActor_ = check::RaceDetector::instance().registerActor(
            "node" + std::to_string(self) + ".dma",
            check::ActorKind::Dma));
}

sim::Task<>
IncomingDmaEngine::loop()
{
    for (;;) {
        net::Packet pkt = co_await input_.recv();
        sim::profile::retag(sim::profile::Subsys::Dma);
        std::size_t len = pkt.payload.size();
        PageNum page = mem_.pageOf(pkt.destAddr);

        bool drop = false;
        if (!ipt_.rangeEnabled(pkt.destAddr, len, cfg_.pageBytes)) {
            // Freeze the receive datapath and interrupt the node CPU.
            ++freezes_;
            statFreezes_ += 1;
            trace::instant(track_, "freeze", sim_.queue().now());
            SHRIMP_DEBUG("node%d incoming: freeze on page %u at %llu ns",
                         int(self_), unsigned(page),
                         (unsigned long long)sim_.queue().now());
            frozen_ = true;
            if (!badHandler_) {
                panic(logging::format(
                    "data received for disabled page %u and no daemon "
                    "handler installed", page));
            }
            badHandler_(pkt, page);
            while (frozen_)
                co_await unfreezeCond_.wait();
            if (freezeAction_ == FreezeAction::Drop) {
                drop = true;
            } else if (!ipt_.rangeEnabled(pkt.destAddr, len,
                                          cfg_.pageBytes)) {
                panic("unfreeze(Retry) but destination page still "
                      "disabled");
            }
        }

        if (drop) {
            ++dropped_;
            statPacketsDropped_ += 1;
            noteDone(pkt.destAddr);
            continue;
        }

        SHRIMP_CHECK_HOOK(check::SimChecker::instance().onDelivery(
            this, pkt.src, pkt.seq,
            ipt_.rangeEnabled(pkt.destAddr, len, cfg_.pageBytes)));
        co_await eisa_.transfer(len, cfg_.dmaWriteSetup);
        sim::profile::retag(sim::profile::Subsys::Dma);
        {
            // The delivery write is ordered after the sender's clock at
            // packet formation and after the export-window handshake.
            SHRIMP_RACE_SCOPE(raceActor_);
            SHRIMP_CHECK_HOOK(check::RaceDetector::instance().join(
                raceActor_, pkt.raceClock));
            SHRIMP_CHECK_HOOK(check::RaceDetector::instance().joinWindow(
                &mem_, pkt.destAddr, len, raceActor_));
            mem_.write(pkt.destAddr, pkt.payload.data(), len);
        }
        ++delivered_;
        bytesDelivered_ += len;
        statPacketsDelivered_ += 1;
        statBytesDelivered_ += len;
        trace::instant(track_, "pkt.delivered", sim_.queue().now());
        noteDone(pkt.destAddr);

        const bool willNotify =
            pkt.senderInterrupt && ipt_.interrupt(page);
        // The chain ends where the data becomes visible: at the
        // notification when one fires, else at the delivery DMA.
        if (willNotify) {
            span::step(pkt.spanId, track_, "pkt.deliver",
                       sim_.queue().now());
        } else {
            span::finish(pkt.spanId, track_, "pkt.deliver",
                         sim_.queue().now());
        }

        if (willNotify) {
            ++notifications_;
            statNotifications_ += 1;
            trace::instant(track_, "notify", sim_.queue().now());
            span::finish(pkt.spanId, track_, "notify", sim_.queue().now());
            if (notifyHandler_) {
                // The handler chain runs synchronously up to the handoff
                // to the notified process (any spawned delivery task
                // suspends at its first cost charge).
                SHRIMP_RACE_SCOPE(raceActor_);
                notifyHandler_(pkt);
            }
        }
    }
}

void
IncomingDmaEngine::unfreeze(FreezeAction action)
{
    if (!frozen_)
        panic("unfreeze called but datapath is not frozen");
    freezeAction_ = action;
    frozen_ = false;
    unfreezeCond_.notifyAll();
}

void
IncomingDmaEngine::noteInflight(PAddr addr)
{
    PageNum page = mem_.pageOf(addr);
    if (page >= inflight_.size()) [[unlikely]]
        inflight_.resize(std::size_t(page) + 1, 0);
    ++inflight_[page];
}

void
IncomingDmaEngine::noteDone(PAddr addr)
{
    PageNum page = mem_.pageOf(addr);
    if (page >= inflight_.size() || inflight_[page] == 0)
        panic("in-flight packet accounting underflow");
    --inflight_[page];
    drainCond_.notifyAll();
}

sim::Task<>
IncomingDmaEngine::waitDrain(PageNum first, PageNum last)
{
    auto busy = [this, first, last] {
        for (std::size_t p = first; p <= last && p < inflight_.size(); ++p) {
            if (inflight_[p] != 0)
                return true;
        }
        return false;
    };
    while (busy())
        co_await drainCond_.wait();
}

} // namespace shrimp::nic
