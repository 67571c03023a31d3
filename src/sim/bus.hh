/**
 * @file
 * Bus: a shared bandwidth resource. A transfer holds the bus's ledger
 * for setup + bytes/bandwidth; contending transfers queue in FIFO order.
 * Used for the Xpress memory bus, the EISA expansion bus, mesh links
 * (whose hops claim the ledger directly, net/mesh.hh), and the Ethernet
 * side channel.
 */

#ifndef SHRIMP_SIM_BUS_HH
#define SHRIMP_SIM_BUS_HH

#include <cstddef>
#include <string>

#include "base/stats.hh"
#include "base/trace.hh"
#include "base/types.hh"
#include "sim/profile.hh"
#include "sim/sync.hh"

namespace shrimp::sim
{

class Bus
{
  public:
    /**
     * @param queue the event queue driving time
     * @param mb_per_sec bus bandwidth, 10^6 bytes per second
     * @param name stats group name
     */
    Bus(EventQueue &queue, double mb_per_sec, std::string name = "bus");

    /** Awaiter for transfer(): one `xfer` span on the bus's track. */
    class [[nodiscard]] TransferAwaiter : public Hold<TransferAwaiter>
    {
      public:
        TransferAwaiter(Bus &bus, std::size_t bytes, Tick setup)
            : Hold(bus.ledger_), bus_(bus), bytes_(bytes),
              span_(bus.occupancy(bytes, setup))
        {}

        bool
        await_suspend(std::coroutine_handle<> h)
        {
            // The queueing and occupancy events are the bus's own
            // cost, whoever initiated the transfer.
            profile::retag(bus_.profSubsys_);
            return Hold::await_suspend(h);
        }

      private:
        friend class Hold<TransferAwaiter>;

        Tick
        begin()
        {
            profile::retag(bus_.profSubsys_);
            bus_.beginTransfer(bytes_);
            return span_;
        }

        void end() { bus_.endTransfer(bytes_, span_); }

        Bus &bus_;
        std::size_t bytes_;
        Tick span_;
    };

    /**
     * Occupy the bus for one transaction of @p bytes plus a fixed
     * @p setup time; completes when the transaction is done.
     */
    TransferAwaiter
    transfer(std::size_t bytes, Tick setup = 0)
    {
        return TransferAwaiter(*this, bytes, setup);
    }

    /** Time one transaction of @p bytes would occupy the bus. */
    Tick occupancy(std::size_t bytes, Tick setup = 0) const;

    /**
     * Start one transaction of @p bytes: the checker's grant hook and an
     * `xfer` span on this bus's track. transfer() brackets its occupancy
     * with this pair; a mesh hop, which claims ledger() itself, calls the
     * pair directly so both look alike to the checker, the trace and the
     * stats.
     */
    void beginTransfer(std::size_t bytes);

    /** End the transaction beginTransfer() started, after it occupied
     *  the bus for @p occupied ticks: checker hook, stats, span end. */
    void endTransfer(std::size_t bytes, Tick occupied);

    /** The ledger transfers hold; mesh hops claim it directly. */
    Ledger &ledger() { return ledger_; }

    double bandwidth() const { return bw_; }
    Tick busyTime() const { return statOccupancyNs_.value(); }
    std::uint64_t bytesMoved() const { return statBytes_.value(); }
    std::uint64_t transactions() const { return statTransactions_.value(); }
    stats::Group &stats() { return stats_; }

    /** Profiler subsystem this bus's occupancy is attributed to
     *  (default Bus; a router tags its links Router). */
    void setProfileSubsys(profile::Subsys s) { profSubsys_ = s; }

  private:
    EventQueue &queue_;
    double bw_;
    profile::Subsys profSubsys_ = profile::Subsys::Bus;
    std::uint64_t bps_; //!< bw_ in whole bytes/s; see units::transferTime
    Ledger ledger_;
    stats::Group stats_;
    trace::TrackId track_;
    // Hot path: stat lookups are hoisted to construction (the returned
    // references are stable), so transfer() pays plain increments.
    stats::Counter &statTransactions_;
    stats::Counter &statBytes_;
    stats::Counter &statOccupancyNs_;
    stats::Distribution &statXferBytes_;
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_BUS_HH
