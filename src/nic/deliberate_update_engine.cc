#include "nic/deliberate_update_engine.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "check/check.hh"
#include "check/race.hh"
#include "sim/profile.hh"

namespace shrimp::nic
{

DeliberateUpdateEngine::DeliberateUpdateEngine(const MachineConfig &cfg,
                                               mem::Memory &memory,
                                               sim::Bus &eisa,
                                               Packetizer &packetizer)
    : cfg_(cfg), mem_(memory), eisa_(eisa), packetizer_(packetizer)
{
    SHRIMP_CHECK_HOOK(
        raceActor_ = check::RaceDetector::instance().registerActor(
            "node" + std::to_string(packetizer.self()) + ".du",
            check::ActorKind::Du));
}

sim::Task<>
DeliberateUpdateEngine::send(OptEntry dst, std::size_t dst_off,
                             PAddr src, std::size_t len, bool notify,
                             span::SpanId span)
{
    if (!dst.valid)
        panic("DU send through invalid OPT slot");
    if (src % 4 != 0 || (dst.destBase + dst_off) % 4 != 0)
        panic("DU engine handed misaligned addresses (the VMMC layer "
              "must reject these)");

    // The hardware transfers whole words; a non-multiple length sends
    // padding bytes after the message (paper section 4, "Reducing
    // Copying").
    std::size_t wire_len = (len + 3) & ~std::size_t(3);
    if (dst_off + wire_len > dst.len)
        panic("DU transfer exceeds imported window");

    ++transfers_;
    std::size_t page = cfg_.pageBytes;
    std::size_t done = 0;
    while (done < wire_len) {
        PAddr dest_addr = dst.destBase + PAddr(dst_off + done);
        std::size_t to_page_end = page - (dest_addr % page);
        std::size_t chunk = std::min({wire_len - done, cfg_.maxPacketBytes,
                                      to_page_end});

        // DMA-read the source data over the EISA bus.
        co_await eisa_.transfer(chunk, cfg_.dmaReadSetup);
        sim::profile::retag(sim::profile::Subsys::Du);

        net::Packet pkt;
        pkt.dst = dst.destNode;
        pkt.destAddr = dest_addr;
        pkt.spanId = span;
        pkt.payload.resize(chunk);
        {
            // The DMA read is the engine's access, not the caller's.
            SHRIMP_RACE_SCOPE(raceActor_);
            mem_.read(src + PAddr(done), pkt.payload.data(), chunk);
        }
        pkt.senderInterrupt = notify && (done + chunk == wire_len);
        // Shadow check: an unattributed re-read of the source range must
        // match what the packet carries (catches any payload corruption
        // between the DMA read and packet emission).
        SHRIMP_CHECK_HOOK(
            std::vector<std::uint8_t> shadow(chunk);
            mem_.read(src + PAddr(done), shadow.data(), chunk);
            check::SimChecker::instance().onDuPacket(
                &packetizer_, pkt, shadow.data(), chunk));
        SHRIMP_CHECK_HOOK(pkt.raceClock =
                              check::RaceDetector::instance().snapshot(
                                  raceActor_));
        packetizer_.duPacket(std::move(pkt));

        done += chunk;
        bytesSent_ += chunk;
    }
}

} // namespace shrimp::nic
