#include "sim/bus.hh"

#include "base/logging.hh"
#include "check/check.hh"

namespace shrimp::sim
{

Bus::Bus(EventQueue &queue, double mb_per_sec, std::string name)
    : queue_(queue), bw_(mb_per_sec), bps_(units::bytesPerSec(mb_per_sec)),
      ledger_(queue),
      stats_(std::move(name)), track_(trace::track(stats_.name())),
      statTransactions_(stats_.counter("transactions")),
      statBytes_(stats_.counter("bytes")),
      statOccupancyNs_(stats_.counter("occupancyNs")),
      statXferBytes_(stats_.distribution("xferBytes"))
{
    if (bw_ <= 0.0)
        fatal("bus bandwidth must be positive");
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onBusCreated(this));
}

Tick
Bus::occupancy(std::size_t bytes, Tick setup) const
{
    return setup + units::transferTime(bytes, bps_);
}

void
Bus::beginTransfer([[maybe_unused]] std::size_t bytes)
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onBusTransferStart(this, bytes));
    if (trace::on())
        trace::Tracer::instance().begin(track_, "xfer", queue_.now());
}

void
Bus::endTransfer(std::size_t bytes, Tick occupied)
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onBusTransferEnd(this, bytes));
    statTransactions_ += 1;
    statBytes_ += bytes;
    statOccupancyNs_ += occupied;
    statXferBytes_.sample(double(bytes));
    if (trace::on())
        trace::Tracer::instance().end(track_, "xfer", queue_.now());
}

} // namespace shrimp::sim
