#include "nx/nx.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/logging.hh"
#include "base/span.hh"
#include "check/check.hh"

namespace shrimp::nx
{

namespace
{

/** Measured buffer-management overhead of the send and receive paths
 *  (the paper reports just over 6 us above the hardware limit for a
 *  small automatic-update message, including the credit return). */
constexpr Tick nxSendOverhead = 1200;
constexpr Tick nxRecvOverhead = 1500;

constexpr long gsyncTypeBase = nxReservedType + 0x100;
constexpr long gopType = nxReservedType + 0x200;
constexpr long gopResultType = nxReservedType + 0x201;

bool
typeMatches(long typesel, long type)
{
    if (typesel == nxAnyType)
        return type < nxReservedType;
    return type == typesel;
}

} // namespace

// ---- NxProc ---------------------------------------------------------------

NxProc::NxProc(vmmc::Endpoint &ep, int rank, NxSystem &system)
    : ep_(ep), rank_(rank), system_(system),
      nextWindowKey_(0x4E590000u + std::uint32_t(rank) * 0x1000u),
      stats_("nx.rank" + std::to_string(rank)),
      track_(trace::track(stats_.name())),
      statCsends_(stats_.counter("csends")),
      statSentBytes_(stats_.counter("sentBytes")),
      statCsendBytes_(stats_.distribution("csendBytes")),
      statCrecvs_(stats_.counter("crecvs")),
      statScouts_(stats_.counter("scouts"))
{
    safePool_.push_back(ep_.proc().alloc(system.options().safeCopyBytes));
    scratch_ = ep_.proc().alloc(2 * system.options().pktDataBytes + 4096);
}

int
NxProc::numnodes() const
{
    return system_.numnodes();
}

Connection &
NxProc::conn(int peer)
{
    auto &c = conns_.at(peer);
    if (!c)
        panic("NX: no connection to self");
    return *c;
}

SendMode
NxProc::resolveMode(VAddr buf, std::size_t len) const
{
    const NxOptions &opt = system_.options();
    SendMode m = forcedMode_;
    if (m == SendMode::Auto) {
        if (len > opt.largeThreshold)
            m = SendMode::ZeroCopy;
        else if (len <= opt.auThreshold)
            m = SendMode::AuMarshal;
        else
            m = SendMode::DuOneCopy;
    }
    // The hardware requires word alignment for deliberate update: fall
    // back to the marshalled (two-copy) variant for unaligned buffers.
    if (m == SendMode::DuOneCopy && buf % 4 != 0)
        m = SendMode::DuTwoCopy;
    // Zero copy needs word alignment and whole words on the sender;
    // the receiver copes with any buffer (bounce landing zone), but a
    // hopeless sender skips the scout entirely.
    if (m == SendMode::ZeroCopy && (buf % 4 != 0 || len % 4 != 0 ||
                                    len == 0)) {
        m = (buf % 4 == 0) ? SendMode::DuOneCopy : SendMode::DuTwoCopy;
    }
    return m;
}

// ---- send paths -------------------------------------------------------

sim::Task<>
NxProc::csend(long type, VAddr buf, std::size_t len, int dest)
{
    node::Process &proc = ep_.proc();
    trace::ScopedSpan span(proc.sim(), track_, "csend");
    // Message origin: stage the (maybe-)sampled id; the vmmc send or
    // the packetizer claims it when the data actually moves.
    span::stage(span::origin(track_, "nx.csend", proc.sim().now()));
    statCsends_ += 1;
    statSentBytes_ += len;
    statCsendBytes_.sample(double(len));
    co_await proc.compute(proc.config().libCallCost + nxSendOverhead);
    if (progressDue())
        co_await progress();
    if (dest == rank_)
        panic("NX: send to self is not supported");
    SendMode m = resolveMode(buf, len);
    if (m == SendMode::ZeroCopy)
        co_await sendLarge(dest, type, buf, len);
    else
        co_await sendFragmented(dest, type, buf, len, m);
}

sim::Task<>
NxProc::sendFragmented(int dest, long type, VAddr buf, std::size_t len,
                       SendMode mode)
{
    Connection &c = conn(dest);
    node::Process &proc = ep_.proc();
    std::size_t pkt = system_.options().pktDataBytes;
    std::size_t total = len == 0 ? 1 : (len + pkt - 1) / pkt;
    if (total > 0xFFFF)
        panic("NX: message needs too many fragments");

    std::vector<std::uint8_t> host;
    for (std::size_t k = 0; k < total; ++k) {
        std::size_t off = k * pkt;
        std::size_t size_k = std::min(pkt, len - off);
        int buf_idx = co_await c.acquireBuffer();
        NxDesc d;
        d.stamp = c.takeStamp();
        d.type = std::uint32_t(type);
        d.size = std::uint32_t(size_k);
        d.frag = (std::uint32_t(k) << 16) | std::uint32_t(total);
        // Header marshalling work.
        co_await proc.compute(2 * proc.config().cpuOpCost);
        const std::uint8_t *data = nullptr;
        if (mode != SendMode::DuOneCopy && size_k > 0) {
            host.resize(size_k);
            proc.peek(buf + VAddr(off), host.data(), size_k);
            data = host.data();
        }
        co_await c.sendFragment(buf_idx, d, data, buf + VAddr(off), mode);
    }
}

VAddr
NxProc::acquireSafeBuffer()
{
    if (safePool_.empty()) {
        // More concurrent large sends than buffers: grow the pool (the
        // buffers are recycled when the transfers complete).
        return ep_.proc().alloc(system_.options().safeCopyBytes);
    }
    VAddr buf = safePool_.back();
    safePool_.pop_back();
    return buf;
}

void
NxProc::releaseSafeBuffer(VAddr buf)
{
    safePool_.push_back(buf);
}

sim::Task<>
NxProc::sendLarge(int dest, long type, VAddr buf, std::size_t len)
{
    Connection &c = conn(dest);
    node::Process &proc = ep_.proc();
    const NxOptions &opt = system_.options();
    statScouts_ += 1;
    // Send the scout through the one-copy protocol.
    std::uint32_t stamp = c.takeStamp();
    {
        int buf_idx = co_await c.acquireBuffer();
        NxDesc d;
        d.stamp = stamp;
        d.type = std::uint32_t(type);
        d.size = sizeof(ScoutInfo);
        d.frag = nxScoutFrag;
        ScoutInfo si;
        si.totalLen = std::uint32_t(len);
        co_await c.sendFragment(buf_idx, d,
                                reinterpret_cast<const std::uint8_t *>(&si),
                                0, SendMode::AuMarshal);
    }

    // Start the safe copy, watching for the receiver's reply between
    // chunks; the moment the reply arrives, transfer directly from the
    // user's memory and stop copying.
    std::size_t copied = 0;
    const std::size_t chunk = 1024;
    bool can_copy = len <= opt.safeCopyBytes;
    VAddr safe = can_copy ? acquireSafeBuffer() : 0;
    for (;;) {
        ReplyEntry e;
        if (c.findReply(stamp, e)) {
            co_await proc.compute(proc.config().cpuOpCost);
            if (safe)
                releaseSafeBuffer(safe);
            std::size_t transfer = std::min(len, std::size_t(e.pad));
            vmmc::Status s = co_await c.sendDirect(e.key, e.off, buf,
                                                   transfer);
            if (s != vmmc::Status::Ok)
                panic(std::string("NX zero-copy transfer failed: ") +
                      vmmc::statusName(s));
            co_await c.postDone(stamp);
            co_return;
        }
        if (!can_copy) {
            co_await pollRecvBlock();
            continue;
        }
        if (copied < len) {
            std::size_t n = std::min(chunk, len - copied);
            co_await proc.copy(safe + VAddr(copied), buf + VAddr(copied),
                               n);
            copied += n;
        } else {
            // Fully copied: the user buffer is reusable; finish the
            // transfer from the safe copy when the reply arrives.
            pendingLarge_.push_back(
                PendingLarge{dest, stamp, safe, len, type});
            armCompletion();
            co_return;
        }
    }
}

// ---- receive paths ------------------------------------------------------

std::optional<NxProc::Match>
NxProc::scanMatch(long typesel)
{
    const mem::Memory &m = ep_.proc().node().memory();
    for (int peer = 0; peer < int(scan_.size()); ++peer) {
        if (peer == rank_)
            continue;
        PeerScan &s = scan_[peer];
        const bool current = !m.writtenSince(s.dataPa, s.dataBytes, s.seq);
#ifdef SHRIMP_CHECK
        // Checked builds read every stamp on every scan, as the race
        // detector's observation edges expect, and cross-check the
        // table.
        const std::uint64_t cached = s.slots;
        s.slots = conns_[peer]->occupiedSlots();
        s.seq = m.writeCount();
        if (current && s.slots != cached && check::on())
            check::SimChecker::instance().report(logging::format(
                "nx: rank %d's slot mask for peer %d changed without a "
                "write to its packet buffers (cached 0x%llx, read 0x%llx)",
                rank_, peer, static_cast<unsigned long long>(cached),
                static_cast<unsigned long long>(s.slots)));
#else
        if (!current) {
            s.slots = conns_[peer]->occupiedSlots();
            s.seq = m.writeCount();
        }
#endif
        if (s.slots == 0)
            continue;
        Connection &c = *conns_[peer];
        std::optional<Match> best;
        // Walk only the occupied slots, lowest index first.
        for (std::uint64_t slots = s.slots; slots != 0;
             slots &= slots - 1) {
            int i = std::countr_zero(slots);
            NxDesc d = c.peekDesc(i);
            bool is_scout = d.frag == nxScoutFrag;
            if (!is_scout && (d.frag >> 16) != 0)
                continue; // later fragment; match only message heads
            if (!typeMatches(typesel, long(d.type)))
                continue;
            if (!best || d.stamp < best->desc.stamp)
                best = Match{peer, i, d};
        }
        if (best)
            return best;
    }
    return std::nullopt;
}

sim::Task<RecvInfo>
NxProc::consumeSmall(const Match &m, VAddr buf, std::size_t maxlen,
                     bool in_place)
{
    Connection &c = conn(m.peer);
    node::Process &proc = ep_.proc();
    co_await proc.detectPenalty(c.descAddr(m.bufIdx));

    RecvInfo info;
    info.type = long(m.desc.type);
    info.node = m.peer;

    std::size_t total = m.desc.frag & 0xFFFF;
    std::size_t pkt = system_.options().pktDataBytes;

    // Fragment 0.
    co_await proc.compute(2 * proc.config().cpuOpCost);
    if (!in_place)
        co_await c.copyOut(m.bufIdx, m.desc.size, buf, maxlen, 0);
    info.count = m.desc.size;
    co_await c.releaseBuffer(m.bufIdx);

    // Remaining fragments arrive with consecutive stamps.
    for (std::size_t k = 1; k < total; ++k) {
        std::uint32_t want = m.desc.stamp + std::uint32_t(k);
        int idx = -1;
        for (;;) {
            for (int i = 0; i < system_.options().numBufs; ++i) {
                if (c.peekStamp(i) == want) {
                    idx = i;
                    break;
                }
            }
            if (idx >= 0)
                break;
            co_await pollRecvBlock();
        }
        NxDesc d = c.peekDesc(idx);
        co_await proc.compute(proc.config().cpuOpCost);
        if (!in_place)
            co_await c.copyOut(idx, d.size, buf, maxlen, k * pkt);
        info.count += d.size;
        co_await c.releaseBuffer(idx);
    }
    co_return info;
}

sim::Task<std::uint32_t>
NxProc::exportWindow(VAddr base, std::size_t len, std::uint32_t &off_out)
{
    const MachineConfig &cfg = ep_.proc().config();
    VAddr page_base = base & ~VAddr(cfg.pageBytes - 1);
    std::size_t wlen =
        (std::size_t(base) + len + cfg.pageBytes - 1) / cfg.pageBytes *
            cfg.pageBytes -
        page_base;
    for (const ExportedWindow &w : windows_) {
        if (w.base <= page_base && page_base + wlen <= w.base + w.len) {
            off_out = std::uint32_t(base - w.base);
            co_return w.key;
        }
    }
    std::uint32_t key = nextWindowKey_++;
    vmmc::Status s =
        co_await ep_.exportBuffer(key, page_base, wlen, vmmc::Perm{});
    if (s != vmmc::Status::Ok)
        co_return 0; // caller lands the data in a bounce buffer
    windows_.push_back(ExportedWindow{page_base, wlen, key});
    off_out = std::uint32_t(base - page_base);
    co_return key;
}

sim::Task<VAddr>
NxProc::acquireBounce(std::size_t len, std::uint32_t &key_out)
{
    for (Bounce &b : bounces_) {
        if (!b.busy && b.len >= len) {
            b.busy = true;
            key_out = b.key;
            co_return b.base;
        }
    }
    std::size_t page = ep_.proc().config().pageBytes;
    std::size_t blen = std::max(page, (len + page - 1) / page * page);
    VAddr base = ep_.proc().alloc(blen);
    std::uint32_t key = nextWindowKey_++;
    vmmc::Status s = co_await ep_.exportBuffer(key, base, blen,
                                               vmmc::Perm{});
    if (s != vmmc::Status::Ok)
        panic(std::string("NX bounce buffer export failed: ") +
              vmmc::statusName(s));
    bounces_.push_back(Bounce{base, blen, key, true});
    key_out = key;
    co_return base;
}

sim::Task<>
NxProc::landLarge(VAddr bounce, VAddr buf, std::size_t n)
{
    node::Process &proc = ep_.proc();
    if (bounce == 0) {
        co_await proc.detectPenalty(buf);
        co_return;
    }
    co_await proc.detectPenalty(bounce);
    co_await proc.copy(buf, bounce, n);
    for (Bounce &b : bounces_) {
        if (b.base == bounce)
            b.busy = false;
    }
}

sim::Task<VAddr>
NxProc::answerScout(const Match &m, VAddr buf, std::size_t maxlen,
                    RecvInfo &info)
{
    Connection &c = conn(m.peer);
    node::Process &proc = ep_.proc();
    co_await proc.detectPenalty(c.descAddr(m.bufIdx));

    ScoutInfo si;
    c.peekPayload(m.bufIdx, sizeof(si), &si);
    if (si.magic != ScoutInfo{}.magic)
        panic("NX: corrupt scout message");
    co_await c.releaseBuffer(m.bufIdx);

    info.type = long(m.desc.type);
    info.node = m.peer;
    info.count = si.totalLen;

    std::size_t accept = std::min(std::size_t(si.totalLen), maxlen);
    bool aligned = buf % 4 == 0 && accept % 4 == 0 && accept > 0;
    std::uint32_t key = 0;
    std::uint32_t off = 0;
    if (aligned)
        key = co_await exportWindow(buf, accept, off);
    VAddr bounce = 0;
    if (key == 0) {
        // The user buffer cannot be the landing zone: the data lands in
        // a library buffer and is copied out after the done flag. (A
        // resend through the packet buffers instead would take stamps
        // after messages the sender posted meanwhile, breaking FIFO.)
        bounce = co_await acquireBounce(accept, key);
        off = 0;
    }

    ReplyEntry e;
    e.stamp = m.desc.stamp;
    e.key = key;
    e.off = off;
    e.pad = std::uint32_t(accept);
    // The reply rides the control ring; ReplyEntry::pad carries the
    // accepted length.
    co_await proc.compute(proc.config().cpuOpCost);
    co_await c.postReply(e.stamp, e.key, e.off, e.pad);
    co_return bounce;
}

sim::Task<std::size_t>
NxProc::crecvInPlace(long typesel)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    for (;;) {
        if (progressDue())
            co_await progress();
        std::optional<Match> m = scanMatch(typesel);
        if (!m) {
            co_await pollRecvBlock();
            continue;
        }
        if (m->desc.frag == nxScoutFrag)
            panic("crecvInPlace cannot accept a large-protocol message");
        co_await proc.compute(2 * proc.config().cpuOpCost);
        RecvInfo info = co_await consumeSmall(*m, 0, 0, /*in_place=*/true);
        co_await proc.compute(nxRecvOverhead);
        info_ = info;
        co_return info.count;
    }
}

sim::Task<>
NxProc::waitDone(int peer, std::uint32_t stamp)
{
    Connection &c = conn(peer);
    for (;;) {
        if (progressDue())
            co_await progress();
        if (c.findDone(stamp))
            co_return;
        co_await pollRecvBlock();
    }
}

sim::Task<std::size_t>
NxProc::crecv(long typesel, VAddr buf, std::size_t maxlen)
{
    node::Process &proc = ep_.proc();
    trace::ScopedSpan span(proc.sim(), track_, "crecv");
    statCrecvs_ += 1;
    co_await proc.compute(proc.config().libCallCost);
    for (;;) {
        if (progressDue())
            co_await progress();
        std::optional<Match> m = scanMatch(typesel);
        if (!m) {
            co_await pollRecvBlock();
            continue;
        }
        co_await proc.compute(2 * proc.config().cpuOpCost);
        if (m->desc.frag == nxScoutFrag) {
            RecvInfo info;
            VAddr bounce = co_await answerScout(*m, buf, maxlen, info);
            co_await waitDone(m->peer, m->desc.stamp);
            std::size_t n = std::min(info.count, maxlen);
            co_await landLarge(bounce, buf, n);
            co_await proc.compute(nxRecvOverhead);
            info_ = info;
            co_return n;
        }
        RecvInfo info = co_await consumeSmall(*m, buf, maxlen);
        // Buffer management on the way out, including the credit
        // bookkeeping (paper: part of the ~6 us library overhead).
        co_await proc.compute(nxRecvOverhead);
        info_ = info;
        co_return std::min(info.count, maxlen);
    }
}

// ---- progress engine -----------------------------------------------------

sim::Task<>
NxProc::progress()
{
    co_await progressSends();
    co_await progressRecvs();
}

bool
NxProc::progressDue()
{
    for (const PostedRecv &p : posted_) {
        if (!p.done)
            return true;
    }
    return replyArrived();
}

bool
NxProc::replyArrived()
{
    for (const PendingLarge &p : pendingLarge_) {
        if (conn(p.peer).hasReply(p.stamp))
            return true;
    }
    return false;
}

sim::Task<>
NxProc::progressSends()
{
    // Complete pending large sends whose reply has arrived. findReply
    // consumes the ring slot and the entry is removed before any
    // suspension, so concurrent progress calls cannot double-complete.
    for (std::size_t i = 0; i < pendingLarge_.size();) {
        PendingLarge &p = pendingLarge_[i];
        Connection &c = conn(p.peer);
        ReplyEntry e;
        if (!c.findReply(p.stamp, e)) {
            ++i;
            continue;
        }
        PendingLarge done = p;
        pendingLarge_.erase(pendingLarge_.begin() + long(i));
        std::size_t transfer = std::min(done.len, std::size_t(e.pad));
        vmmc::Status s = co_await c.sendDirect(e.key, e.off, done.src,
                                               transfer);
        if (s != vmmc::Status::Ok)
            panic("NX zero-copy completion failed");
        co_await c.postDone(done.stamp);
        releaseSafeBuffer(done.src);
    }
}

sim::Task<>
NxProc::progressRecvs()
{
    // Fill posted receives.
    for (PostedRecv &p : posted_) {
        if (p.done)
            continue;
        if (p.largeWait) {
            if (conn(p.largePeer).findDone(p.largeStamp)) {
                co_await landLarge(p.bounce, p.buf,
                                   std::min(p.info.count, p.maxlen));
                p.done = true;
            }
            continue;
        }
        std::optional<Match> m = scanMatch(p.typesel);
        if (!m)
            continue;
        if (m->desc.frag == nxScoutFrag) {
            p.bounce = co_await answerScout(*m, p.buf, p.maxlen, p.info);
            p.largeWait = true;
            p.largePeer = m->peer;
            p.largeStamp = m->desc.stamp;
            continue;
        }
        p.info = co_await consumeSmall(*m, p.buf, p.maxlen);
        p.done = true;
    }
}

void
NxProc::armCompletion()
{
    if (completionArmed_)
        return;
    completionArmed_ = true;
    ep_.proc().sim().spawn(completionAgent());
}

sim::Task<>
NxProc::completionAgent()
{
    while (!pendingLarge_.empty()) {
        if (replyArrived())
            co_await progressSends();
        if (pendingLarge_.empty())
            break;
        co_await pollRecvBlock();
    }
    completionArmed_ = false;
}

// ---- asynchronous operations ----------------------------------------------

sim::Task<int>
NxProc::isend(long type, VAddr buf, std::size_t len, int dest)
{
    // Returns once the user buffer is safe to reuse (which is NX's
    // msgwait guarantee); any remaining transfer work continues through
    // the progress engine.
    co_await csend(type, buf, len, dest);
    int id = nextMsgId_++;
    doneIds_.push_back(id);
    co_return id;
}

sim::Task<int>
NxProc::irecv(long typesel, VAddr buf, std::size_t maxlen)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    PostedRecv p;
    p.id = nextMsgId_++;
    p.typesel = typesel;
    p.buf = buf;
    p.maxlen = maxlen;
    posted_.push_back(p);
    if (progressDue())
        co_await progress();
    co_return p.id;
}

sim::Task<>
NxProc::msgwait(int msg_id)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    for (;;) {
        auto dit = std::find(doneIds_.begin(), doneIds_.end(), msg_id);
        if (dit != doneIds_.end()) {
            doneIds_.erase(dit);
            co_return;
        }
        auto pit = std::find_if(posted_.begin(), posted_.end(),
                                [msg_id](const PostedRecv &p) {
                                    return p.id == msg_id;
                                });
        if (pit == posted_.end())
            panic("msgwait on unknown message id");
        if (pit->done) {
            info_ = pit->info;
            posted_.erase(pit);
            co_return;
        }
        if (progressDue())
            co_await progress();
        pit = std::find_if(posted_.begin(), posted_.end(),
                           [msg_id](const PostedRecv &p) {
                               return p.id == msg_id;
                           });
        if (pit != posted_.end() && !pit->done)
            co_await pollRecvBlock();
    }
}

sim::Task<bool>
NxProc::msgdone(int msg_id)
{
    if (progressDue())
        co_await progress();
    if (std::find(doneIds_.begin(), doneIds_.end(), msg_id) !=
        doneIds_.end()) {
        co_return true;
    }
    auto pit = std::find_if(posted_.begin(), posted_.end(),
                            [msg_id](const PostedRecv &p) {
                                return p.id == msg_id;
                            });
    co_return pit != posted_.end() && pit->done;
}

sim::Task<>
NxProc::cprobe(long typesel)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    for (;;) {
        if (progressDue())
            co_await progress();
        std::optional<Match> m = scanMatch(typesel);
        if (m) {
            info_.type = long(m->desc.type);
            info_.node = m->peer;
            if (m->desc.frag == nxScoutFrag) {
                ScoutInfo si;
                conn(m->peer).peekPayload(m->bufIdx, sizeof(si), &si);
                info_.count = si.totalLen;
            } else {
                // Head fragment: the full size is known only when all
                // fragments arrive; report what the descriptor shows.
                info_.count = m->desc.size;
            }
            co_return;
        }
        co_await pollRecvBlock();
    }
}

sim::Task<std::size_t>
NxProc::csendrecv(long type, VAddr buf, std::size_t len, int dest,
                  long typesel, VAddr rbuf, std::size_t maxlen)
{
    co_await csend(type, buf, len, dest);
    std::size_t n = co_await crecv(typesel, rbuf, maxlen);
    co_return n;
}

sim::Task<bool>
NxProc::iprobe(long typesel)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    if (progressDue())
        co_await progress();
    co_return scanMatch(typesel).has_value();
}

// ---- global operations ------------------------------------------------

sim::Task<>
NxProc::gsync()
{
    int n = numnodes();
    if (n == 1)
        co_return;
    std::uint32_t token = 1;
    ep_.proc().poke(scratch_, &token, sizeof(token));
    for (int r = 0; (1 << r) < n; ++r) {
        int to = (rank_ + (1 << r)) % n;
        int from = (rank_ - (1 << r) + n) % n;
        (void)from; // the type uniquely identifies the round's partner
        co_await csend(gsyncTypeBase + r, scratch_, sizeof(token), to);
        co_await crecv(gsyncTypeBase + r, scratch_ + 64, sizeof(token));
    }
}

sim::Task<double>
NxProc::gdsum(double value)
{
    return reduce(value, [](double a, double b) { return a + b; });
}

sim::Task<double>
NxProc::gdhigh(double value)
{
    return reduce(value, [](double a, double b) { return std::max(a, b); });
}

sim::Task<double>
NxProc::reduce(double value, double (*combine)(double, double))
{
    int n = numnodes();
    node::Process &proc = ep_.proc();
    double result = value;
    if (n == 1)
        co_return result;
    if (rank_ == 0) {
        for (int i = 1; i < n; ++i) {
            co_await crecv(gopType, scratch_, sizeof(double));
            double v;
            proc.peek(scratch_, &v, sizeof(v));
            result = combine(result, v);
        }
        proc.poke(scratch_ + 64, &result, sizeof(result));
        for (int i = 1; i < n; ++i)
            co_await csend(gopResultType, scratch_ + 64, sizeof(double), i);
    } else {
        proc.poke(scratch_, &value, sizeof(value));
        co_await csend(gopType, scratch_, sizeof(double), 0);
        co_await crecv(gopResultType, scratch_ + 64, sizeof(double));
        proc.peek(scratch_ + 64, &result, sizeof(result));
    }
    co_return result;
}

// ---- NxSystem ---------------------------------------------------------

NxSystem::NxSystem(vmmc::System &sys, int nprocs, NxOptions opt)
    : sys_(sys), nprocs_(nprocs), opt_(opt)
{
    if (nprocs < 1)
        fatal("NX needs at least one process");
    // NX fixes the process group at initialization time: one endpoint
    // per rank, placed round-robin over the nodes.
    for (int r = 0; r < nprocs; ++r) {
        vmmc::Endpoint &ep =
            sys.createEndpoint(NodeId(r % sys.numNodes()));
        procs_.push_back(std::make_unique<NxProc>(ep, r, *this));
    }
    for (int r = 0; r < nprocs; ++r) {
        NxProc &p = *procs_[r];
        p.conns_.resize(nprocs);
        p.scan_.resize(nprocs);
        for (int peer = 0; peer < nprocs; ++peer) {
            if (peer == r)
                continue;
            p.conns_[peer] = std::make_unique<Connection>(
                p.ep_, r, peer, NodeId(peer % sys.numNodes()), opt_);
        }
    }
}

sim::Task<>
NxSystem::init()
{
    // NX sets up one set of buffers for each pair of processes at
    // initialization time (paper section 6). A process's receive regions
    // are one block, sliced in peer order; every poll sleeps on the
    // whole block, translated here once.
    for (auto &p : procs_) {
        std::size_t bytes = 0;
        for (const auto &c : p->conns_) {
            if (c)
                bytes += c->regionBytes();
        }
        if (bytes == 0)
            continue; // a lone rank has no peers
        node::Process &proc = p->ep_.proc();
        VAddr region = proc.alloc(bytes);
        p->recvPa_ = proc.as().translateRange(region, bytes);
        p->recvBytes_ = bytes;
        for (std::size_t peer = 0; peer < p->conns_.size(); ++peer) {
            Connection *c = p->conns_[peer].get();
            if (!c)
                continue;
            co_await c->exportSide(region);
            region += VAddr(c->regionBytes());
            // Fresh memory is zero, so an empty mask is exact as of
            // writeCount() 0: the first scan after any write to the
            // buffers re-reads it.
            p->scan_[peer] =
                NxProc::PeerScan{c->dataPa(), c->dataAreaBytes()};
        }
    }
    for (auto &p : procs_) {
        for (auto &c : p->conns_) {
            if (c)
                co_await c->importSide();
        }
    }
}

} // namespace shrimp::nx
