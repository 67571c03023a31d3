#include "nx/connection.hh"

#include <cstring>

#include "base/logging.hh"
#include "check/check.hh"

namespace shrimp::nx
{

namespace
{

std::size_t
roundUp(std::size_t v, std::size_t to)
{
    return (v + to - 1) / to * to;
}

std::size_t
round4(std::size_t v)
{
    return (v + 3) & ~std::size_t(3);
}

} // namespace

Connection::Connection(vmmc::Endpoint &ep, int my_rank, int peer_rank,
                       NodeId peer_node, const NxOptions &opt)
    : ep_(ep), myRank_(my_rank), peerRank_(peer_rank), peerNode_(peer_node),
      opt_(opt),
      dataBytes_(roundUp(std::size_t(opt.numBufs) * bufStride(),
                         ep.proc().config().pageBytes))
{
    if (opt_.numBufs < 2)
        fatal("NX needs at least two packet buffers per connection");
    if (opt_.numBufs > 64)
        fatal("NX supports at most 64 packet buffers per connection "
              "(one occupancy-mask bit each)");
}

std::uint32_t
Connection::regionKey(int importer_rank, int exporter_rank)
{
    // "NX" region namespace: unique per directed pair of ranks.
    return 0x4E580000u | (std::uint32_t(exporter_rank) << 8) |
           std::uint32_t(importer_rank);
}

std::size_t
Connection::regionBytes() const
{
    return dataAreaBytes() + ep_.proc().config().pageBytes;
}

std::size_t
Connection::replyRingOff() const
{
    return creditRingOff() + creditEntries() * 8;
}

std::size_t
Connection::doneRingOff() const
{
    return replyRingOff() + nxReplyRing * sizeof(ReplyEntry);
}

std::size_t
Connection::reqFlagOff() const
{
    return doneRingOff() + nxDoneRing * 8;
}

sim::Task<>
Connection::exportSide(VAddr region)
{
    region_ = region;
    dataPa_ = ep_.proc().as().translateRange(region_, dataAreaBytes());
    ctlPa_ = ep_.proc().as().translateRange(
        ctlBase(), ep_.proc().config().pageBytes);
    // Export with a no-op handler so the pages' interrupt bits are set:
    // the library is prepared to take the "out of buffers" prod
    // interrupt (paper section 6, "Interrupts").
    vmmc::NotifyHandler noop =
        [](vmmc::Endpoint &, const vmmc::Notification &) -> sim::Task<> {
        co_return;
    };
    vmmc::Status s = co_await ep_.exportBuffer(
        regionKey(peerRank_, myRank_), region_, regionBytes(),
        vmmc::Perm::onlyNode(peerNode_), std::move(noop));
    if (s != vmmc::Status::Ok)
        panic(std::string("NX region export failed: ") +
              vmmc::statusName(s));
}

sim::Task<>
Connection::importSide()
{
    auto r = co_await ep_.import(peerNode_, regionKey(myRank_, peerRank_));
    if (r.status != vmmc::Status::Ok)
        panic(std::string("NX region import failed: ") +
              vmmc::statusName(r.status));
    importHandle_ = r.handle;

    const MachineConfig &cfg = ep_.proc().config();
    std::size_t data_bytes = dataAreaBytes();

    auData_ = ep_.proc().alloc(data_bytes);
    vmmc::AuOptions data_opts;
    data_opts.combinable = true;
    data_opts.timerEnabled = true;
    vmmc::Status s =
        co_await ep_.bindAu(auData_, data_bytes, importHandle_, 0,
                            data_opts);
    if (s != vmmc::Status::Ok)
        panic("NX data AU binding failed");

    auCtl_ = ep_.proc().alloc(cfg.pageBytes);
    vmmc::AuOptions ctl_opts;
    ctl_opts.combinable = false; // control info must leave immediately
    s = co_await ep_.bindAu(auCtl_, cfg.pageBytes, importHandle_,
                            data_bytes, ctl_opts);
    if (s != vmmc::Status::Ok)
        panic("NX control AU binding failed");

    stage_ = ep_.proc().alloc(bufStride() + 64);

    freeBufs_.clear();
    for (int i = opt_.numBufs - 1; i >= 0; --i)
        freeBufs_.push_back(i);
}

// ---- send side ----------------------------------------------------------

sim::Task<int>
Connection::acquireBuffer()
{
    node::Process &proc = ep_.proc();
    // Opportunistically drain arrived credits.
    auto drain = [&] {
        for (;;) {
            std::size_t slot = creditsTaken_ % creditEntries();
            VAddr entry = VAddr(ctlBase() + creditRingOff() + slot * 8);
            if (proc.peek32(entry) != creditsTaken_ + 1)
                break;
            freeBufs_.push_back(int(proc.peek32(entry + 4)));
            ++creditsTaken_;
        }
    };
    drain();
    if (freeBufs_.empty()) {
        // All buffers toward the receiver are full: prod it with a
        // notification (the one case NX interrupts the receiver), then
        // wait for a credit to come back.
        ++creditStalls_;
        co_await proc.compute(proc.config().cpuOpCost);
        co_await proc.store32(stage_, 1);
        co_await ep_.send(importHandle_,
                          dataAreaBytes() + reqFlagOff(),
                          stage_, 4, /*notify=*/true);
        while (true) {
            drain();
            if (!freeBufs_.empty())
                break;
            co_await proc.pollSleepPhys(ctlPa_, proc.config().pageBytes);
        }
    }
    co_await proc.compute(proc.config().cpuOpCost);
    int idx = freeBufs_.back();
    freeBufs_.pop_back();
    co_return idx;
}

sim::Task<>
Connection::sendFragment(int buf_idx, const NxDesc &desc,
                         const std::uint8_t *data, VAddr user_addr,
                         SendMode mode)
{
    node::Process &proc = ep_.proc();
    std::size_t desc_off = std::size_t(buf_idx) * bufStride() +
                           opt_.pktDataBytes;
    std::size_t rounded = round4(desc.size);
    std::size_t write_off = desc_off - rounded;

    switch (mode) {
      case SendMode::AuMarshal: {
        // Marshal payload (padded to words) + descriptor as one
        // consecutive run of stores into the AU-bound area; the NIC
        // combines them into as few packets as possible.
        std::vector<std::uint8_t> marshal(rounded + nxDescBytes, 0);
        if (desc.size > 0)
            std::memcpy(marshal.data(), data, desc.size);
        std::memcpy(marshal.data() + rounded, &desc, nxDescBytes);
        co_await proc.write(VAddr(auData_ + write_off), marshal.data(),
                            marshal.size());
        break;
      }
      case SendMode::DuTwoCopy: {
        // Copy payload + descriptor into the staging area, then a single
        // deliberate update carries both.
        std::vector<std::uint8_t> marshal(rounded + nxDescBytes, 0);
        if (desc.size > 0)
            std::memcpy(marshal.data(), data, desc.size);
        std::memcpy(marshal.data() + rounded, &desc, nxDescBytes);
        co_await proc.write(stage_, marshal.data(), marshal.size());
        vmmc::Status s = co_await ep_.send(importHandle_, write_off,
                                           stage_, marshal.size());
        if (s != vmmc::Status::Ok)
            panic(std::string("NX DU send failed: ") + vmmc::statusName(s));
        break;
      }
      case SendMode::DuOneCopy: {
        // Data straight from user memory (word aligned, checked by the
        // caller), then the descriptor with a second deliberate update.
        if (desc.size > 0) {
            vmmc::Status s = co_await ep_.send(importHandle_, write_off,
                                               user_addr, desc.size);
            if (s != vmmc::Status::Ok)
                panic(std::string("NX DU data send failed: ") +
                      vmmc::statusName(s));
        }
        co_await proc.write(stage_, &desc, nxDescBytes);
        vmmc::Status s = co_await ep_.send(importHandle_, desc_off, stage_,
                                           nxDescBytes);
        if (s != vmmc::Status::Ok)
            panic(std::string("NX DU desc send failed: ") +
                  vmmc::statusName(s));
        break;
      }
      default:
        panic("sendFragment: unresolved send mode");
    }
}

int
Connection::ringFind(std::size_t ring_off, std::size_t entry_bytes,
                     int entries, std::uint32_t stamp, RingMiss &miss)
{
    node::Process &proc = ep_.proc();
    const mem::Memory &m = proc.node().memory();
    const bool cached =
        miss.stamp == stamp &&
        !m.writtenSince(ctlPa_, proc.config().pageBytes, miss.seq);
#ifndef SHRIMP_CHECK
    if (cached)
        return -1;
#endif
    int found = -1;
    for (int i = 0; i < entries; ++i) {
        VAddr e = VAddr(ctlBase() + ring_off + std::size_t(i) * entry_bytes);
        if (proc.peek32(e) == stamp) {
            found = i;
            break;
        }
    }
#ifdef SHRIMP_CHECK
    // Checked builds read the ring on every lookup, as the race
    // detector's observation edges expect, and cross-check the miss.
    if (cached && check::on()) {
        check::SimChecker::instance().noteCheck();
        if (found >= 0)
            check::SimChecker::instance().report(logging::format(
                "nx: rank %d's ring at control offset %zu for peer %d "
                "holds stamp %u without a write to its control page "
                "since the lookup that missed it",
                myRank_, ring_off, peerRank_, unsigned(stamp)));
    }
#endif
    if (found < 0)
        miss = RingMiss{stamp, m.writeCount()};
    return found;
}

bool
Connection::findReply(std::uint32_t stamp, ReplyEntry &out)
{
    int i = ringFind(replyRingOff(), sizeof(ReplyEntry), nxReplyRing, stamp,
                     replyMiss_);
    if (i < 0)
        return false;
    node::Process &proc = ep_.proc();
    VAddr e = VAddr(ctlBase() + replyRingOff() + i * sizeof(ReplyEntry));
    out.stamp = stamp;
    out.key = proc.peek32(e + 4);
    out.off = proc.peek32(e + 8);
    out.pad = proc.peek32(e + 12); // accepted length
    proc.poke32(e, 0); // consume the slot
    return true;
}

bool
Connection::hasReply(std::uint32_t stamp)
{
    return ringFind(replyRingOff(), sizeof(ReplyEntry), nxReplyRing, stamp,
                    replyMiss_) >= 0;
}

sim::Task<>
Connection::postDone(std::uint32_t stamp)
{
    std::size_t slot = donesPosted_++ % nxDoneRing;
    co_await ep_.proc().store32(VAddr(auCtl_ + doneRingOff() + slot * 8),
                                stamp);
}

sim::Task<vmmc::Status>
Connection::sendDirect(std::uint32_t key, std::size_t off, VAddr src,
                       std::size_t len)
{
    auto it = userImports_.find(key);
    if (it == userImports_.end()) {
        auto r = co_await ep_.import(peerNode_, key);
        if (r.status != vmmc::Status::Ok)
            co_return r.status;
        it = userImports_.emplace(key, r.handle).first;
    }
    vmmc::Status st = co_await ep_.send(it->second, off, src, len);
    co_return st;
}

// ---- receive side ---------------------------------------------------------

VAddr
Connection::descAddr(int i) const
{
    return VAddr(region_ + std::size_t(i) * bufStride() +
                 opt_.pktDataBytes);
}

NxDesc
Connection::peekDesc(int i) const
{
    NxDesc d;
    ep_.proc().peek(descAddr(i), &d, sizeof(d));
    return d;
}

std::uint32_t
Connection::peekStamp(int i) const
{
    return ep_.proc().peek32(descAddr(i));
}

std::uint64_t
Connection::occupiedSlots() const
{
    std::uint64_t mask = 0;
    for (int i = 0; i < opt_.numBufs; ++i) {
        if (peekStamp(i) != 0)
            mask |= std::uint64_t(1) << i;
    }
    return mask;
}

sim::Task<>
Connection::copyOut(int i, std::size_t size, VAddr dst,
                    std::size_t dst_len, std::size_t dst_off)
{
    std::size_t n = size;
    if (dst_off >= dst_len)
        co_return;
    if (dst_off + n > dst_len)
        n = dst_len - dst_off; // truncating receive
    VAddr src = VAddr(descAddr(i) - round4(size));
    co_await ep_.proc().copy(dst + VAddr(dst_off), src, n);
}

void
Connection::peekPayload(int i, std::size_t size, void *out) const
{
    VAddr src = VAddr(descAddr(i) - round4(size));
    ep_.proc().peek(src, out, size);
}

sim::Task<>
Connection::releaseBuffer(int i)
{
    node::Process &proc = ep_.proc();
    // Clear the descriptor stamp locally so the buffer scans as empty.
    co_await proc.store32(descAddr(i), 0);
    // Return the credit, naming the specific buffer (messages may be
    // consumed out of order).
    ++creditsReturned_;
    std::size_t slot = (creditsReturned_ - 1) % creditEntries();
    std::uint32_t entry[2] = {0, std::uint32_t(i)};
    entry[0] = creditsReturned_;
    // idx first, then the count word? Both land in one packet: the
    // 8-byte store is a single consecutive run.
    co_await proc.write(VAddr(auCtl_ + creditRingOff() + slot * 8), entry,
                        sizeof(entry));
}

sim::Task<>
Connection::postReply(std::uint32_t stamp, std::uint32_t key,
                      std::uint32_t off, std::uint32_t accept)
{
    ReplyEntry e;
    e.stamp = stamp;
    e.key = key;
    e.off = off;
    e.pad = accept;
    std::size_t slot = repliesPosted_++ % nxReplyRing;
    co_await ep_.proc().write(
        VAddr(auCtl_ + replyRingOff() + slot * sizeof(ReplyEntry)), &e,
        sizeof(e));
}

bool
Connection::findDone(std::uint32_t stamp)
{
    int i = ringFind(doneRingOff(), 8, nxDoneRing, stamp, doneMiss_);
    if (i < 0)
        return false;
    ep_.proc().poke32(VAddr(ctlBase() + doneRingOff() + i * 8), 0);
    return true;
}

} // namespace shrimp::nx
