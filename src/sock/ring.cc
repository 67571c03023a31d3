#include "sock/ring.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "node/ether.hh"

namespace shrimp::sock
{

namespace
{

/** Receive-side rescans read the tail (+0) and fin (+16) control words;
 *  this span covers both (and the acked word between them, whose writes
 *  harmlessly re-run the scan). */
constexpr std::size_t ctlSpanBytes = 20;

} // namespace

ByteStream::ByteStream(vmmc::Endpoint &ep, std::size_t ring_bytes)
    : ep_(ep), ringBytes_(ring_bytes)
{
    const MachineConfig &cfg = ep.proc().config();
    if (ring_bytes == 0 || ring_bytes % cfg.pageBytes != 0)
        fatal("stream ring size must be a whole number of pages");
    if (ring_bytes % 4 != 0)
        fatal("stream ring size must be word aligned");
}

sim::Task<vmmc::Status>
ByteStream::connect(NodeId server, std::uint16_t port, std::uint32_t magic)
{
    const std::uint32_t key = ep_.newKey();
    vmmc::Status st =
        co_await exportLocal(key, vmmc::Perm::onlyNode(server));
    if (st != vmmc::Status::Ok)
        co_return st;
    const std::optional<node::Hello> ack =
        co_await ep_.proc().node().ether().request<node::Hello>(
            ep_.nodeId(), server, port, node::Hello{magic, key});
    if (!ack || ack->magic != magic)
        co_return vmmc::Status::BadReply;
    co_return co_await attachRemote(server, ack->key);
}

sim::Task<vmmc::Status>
ByteStream::accept(std::uint16_t port, std::uint32_t magic)
{
    node::EtherNet &ether = ep_.proc().node().ether();
    const node::HelloFrame req =
        co_await ether.listen(ep_.nodeId(), port, magic);
    const NodeId peer = req.frame.src;
    const std::uint32_t key = ep_.newKey();
    vmmc::Status st = co_await exportLocal(key, vmmc::Perm::onlyNode(peer));
    if (st == vmmc::Status::Ok)
        st = co_await attachRemote(peer, req.hello.key);
    if (st == vmmc::Status::Ok)
        ether.reply(req.frame, node::Hello{magic, key});
    co_return st;
}

sim::Task<>
ByteStream::close()
{
    if (!attached())
        co_return;
    if (!finSent_)
        co_await sendFin();
    co_await detachRemote();
}

sim::Task<vmmc::Status>
ByteStream::exportLocal(std::uint32_t key, vmmc::Perm perm)
{
    const MachineConfig &cfg = ep_.proc().config();
    region_ = ep_.proc().alloc(ringBytes_ + cfg.pageBytes);
    co_return co_await ep_.exportBuffer(key, region_,
                                        ringBytes_ + cfg.pageBytes, perm);
}

sim::Task<vmmc::Status>
ByteStream::attachRemote(NodeId peer, std::uint32_t key)
{
    const MachineConfig &cfg = ep_.proc().config();
    auto r = co_await ep_.import(peer, key);
    if (r.status != vmmc::Status::Ok)
        co_return r.status;
    importHandle_ = r.handle;

    auData_ = ep_.proc().alloc(ringBytes_);
    vmmc::AuOptions data_opts; // combining on: streams like big packets
    vmmc::Status s = co_await ep_.bindAu(auData_, ringBytes_,
                                         importHandle_, 0, data_opts);
    if (s != vmmc::Status::Ok) {
        co_await detachRemote(); // leave no half-attached stream
        co_return s;
    }

    auCtl_ = ep_.proc().alloc(cfg.pageBytes);
    vmmc::AuOptions ctl_opts;
    ctl_opts.combinable = false; // control words leave immediately
    s = co_await ep_.bindAu(auCtl_, cfg.pageBytes, importHandle_,
                            ringBytes_, ctl_opts);
    if (s != vmmc::Status::Ok) {
        co_await detachRemote();
        co_return s;
    }

    stage_ = ep_.proc().alloc(std::min<std::size_t>(ringBytes_, 8192));
    co_return vmmc::Status::Ok;
}

sim::Task<>
ByteStream::detachRemote()
{
    if (importHandle_ >= 0) {
        int h = importHandle_;
        importHandle_ = -1;
        co_await ep_.unimport(h);
    }
}

// ---- sending --------------------------------------------------------------

std::size_t
ByteStream::freeSpace() const
{
    std::uint32_t acked = ep_.proc().peek32(VAddr(region_ + ctlOff() + 8));
    return ringBytes_ - std::size_t(written_ - acked);
}

sim::Task<std::size_t>
ByteStream::waitSpace(std::size_t min_bytes)
{
    node::Process &proc = ep_.proc();
    for (;;) {
        std::size_t free = freeSpace();
        if (free >= min_bytes)
            co_return free;
        // Space opens up only when the peer advances the acked word.
        co_await proc.pollSleep(VAddr(region_ + ctlOff() + 8),
                                sizeof(std::uint32_t));
    }
}

sim::Task<>
ByteStream::publishTail()
{
    publishedTail_ = written_;
    co_await ep_.proc().write(VAddr(auCtl_ + 0), &written_,
                              sizeof(written_));
}

sim::Task<>
ByteStream::publishAck()
{
    publishedAck_ = readCount_;
    co_await ep_.proc().write(VAddr(auCtl_ + 8), &readCount_,
                              sizeof(readCount_));
}

sim::Task<>
ByteStream::flushTail()
{
    if (publishedTail_ != written_)
        co_await publishTail();
}

sim::Task<>
ByteStream::flushAck()
{
    if (publishedAck_ != readCount_)
        co_await publishAck();
}

sim::Task<>
ByteStream::putChunk(const void *host, VAddr src, std::size_t len,
                     StreamProto proto)
{
    node::Process &proc = ep_.proc();
    std::size_t off = written_ % ringBytes_;
    SHRIMP_ASSERT(off + len <= ringBytes_, "chunk crosses ring edge");

    switch (proto) {
      case StreamProto::AuTwoCopy: {
        // Copy into the AU-bound send buffer; the copy acts as the send.
        // (sendHost stores host bytes itself.)
        SHRIMP_ASSERT(host == nullptr, "AU chunk needs a simulated source");
        std::vector<std::uint8_t> tmp(len);
        proc.peek(src, tmp.data(), len);
        co_await proc.write(VAddr(auData_ + off), tmp.data(), len);
        break;
      }
      case StreamProto::DuOneCopy: {
        SHRIMP_ASSERT(host == nullptr, "DU-1copy needs a simulated source");
        vmmc::Status s = co_await ep_.send(importHandle_, off, src, len);
        if (s != vmmc::Status::Ok)
            panic(std::string("stream DU send failed: ") +
                  vmmc::statusName(s));
        break;
      }
      case StreamProto::DuTwoCopy: {
        std::vector<std::uint8_t> tmp;
        const void *data = host;
        if (!data) {
            tmp.resize(len);
            proc.peek(src, tmp.data(), len);
            data = tmp.data();
        }
        std::size_t done = 0;
        while (done < len) {
            std::size_t n = std::min(len - done, std::size_t(8192));
            co_await proc.write(stage_,
                                static_cast<const std::uint8_t *>(data) +
                                    done, n);
            vmmc::Status s = co_await ep_.send(importHandle_,
                                               off + done, stage_, n);
            if (s != vmmc::Status::Ok)
                panic(std::string("stream DU send failed: ") +
                      vmmc::statusName(s));
            done += n;
        }
        break;
      }
    }
    written_ += std::uint32_t(len);
}

sim::Task<>
ByteStream::send(VAddr src, std::size_t len, StreamProto proto)
{
    std::size_t sent = 0;
    while (sent < len) {
        // Reserve space; a deliberate update rounds to whole words, so
        // only hand it word-multiple chunks that fit the reservation.
        std::size_t free = freeSpace();
        if (free < 4)
            free = co_await waitSpace(4);
        std::size_t to_edge = ringBytes_ - (written_ % ringBytes_);
        std::size_t chunk = std::min({len - sent, free, to_edge});

        StreamProto p = proto;
        if (p == StreamProto::DuOneCopy) {
            // Alignment dictates the protocol per chunk (paper 4.3): a
            // misaligned source or ring position falls back to two-copy.
            if ((src + sent) % 4 != 0 || (written_ % ringBytes_) % 4 != 0)
                p = StreamProto::DuTwoCopy;
        }
        if (p != StreamProto::AuTwoCopy && chunk % 4 != 0) {
            // The wire rounds DU lengths up to words; keep the rounding
            // inside our reservation, or fall back for short tails.
            if (chunk == len - sent && chunk + 4 <= std::min(free, to_edge))
                ; // rounding pad fits after the chunk
            else if (chunk >= 4)
                chunk &= ~std::size_t(3);
            else
                p = StreamProto::AuTwoCopy; // tiny misfit tail: AU copy
        }
        co_await putChunk(nullptr, src + VAddr(sent), chunk, p);
        sent += chunk;
        // The control word goes out once per transfer (send call), not
        // per chunk — matching the paper's protocols. A half-full ring
        // of unpublished data forces an intermediate publish so flow
        // control cannot wedge on messages larger than the ring.
        if (written_ - publishedTail_ >= ringBytes_ / 2)
            co_await publishTail();
    }
    co_await flushTail();
}

sim::Task<>
ByteStream::sendHost(const void *data, std::size_t len, StreamProto proto,
                     bool publish)
{
    if (proto == StreamProto::DuOneCopy)
        proto = StreamProto::DuTwoCopy; // host bytes always need staging
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t sent = 0;
    while (sent < len) {
        std::size_t min_need = proto == StreamProto::AuTwoCopy ? 1 : 4;
        std::size_t free = freeSpace();
        if (free < min_need)
            free = co_await waitSpace(min_need);
        std::size_t to_edge = ringBytes_ - (written_ % ringBytes_);
        std::size_t chunk = std::min({len - sent, free, to_edge});
        if (proto != StreamProto::AuTwoCopy && chunk % 4 != 0) {
            // Keep deliberate-update word rounding inside the space we
            // reserved.
            if (!(chunk == len - sent &&
                  chunk + 4 <= std::min(free, to_edge))) {
                if (chunk >= 4)
                    chunk &= ~std::size_t(3);
                else
                    proto = StreamProto::AuTwoCopy;
            }
        }
        if (proto == StreamProto::AuTwoCopy) {
            // The AU store, made here rather than through putChunk: per
            // XDR field, this write is the one frame the transfer adds.
            co_await ep_.proc().write(VAddr(auData_ + written_ % ringBytes_),
                                      p + sent, chunk);
            written_ += std::uint32_t(chunk);
        } else {
            co_await putChunk(p + sent, 0, chunk, proto);
        }
        sent += chunk;
        if (publish || written_ - publishedTail_ >= ringBytes_ / 2)
            co_await publishTail();
    }
}

sim::Task<>
ByteStream::sendFin()
{
    finSent_ = true;
    std::uint32_t one = 1;
    co_await ep_.proc().write(VAddr(auCtl_ + 16), &one, sizeof(one));
}

// ---- receiving --------------------------------------------------------

std::size_t
ByteStream::available() const
{
    std::uint32_t tail = ep_.proc().peek32(VAddr(region_ + ctlOff() + 0));
    return std::size_t(tail - readCount_);
}

bool
ByteStream::finReceived() const
{
    return ep_.proc().peek32(VAddr(region_ + ctlOff() + 16)) != 0;
}

sim::Task<std::size_t>
ByteStream::waitReadable()
{
    node::Process &proc = ep_.proc();
    while (available() == 0 && !finReceived())
        co_await proc.pollSleep(VAddr(region_ + ctlOff()), ctlSpanBytes);
    co_return available();
}

sim::Task<std::size_t>
ByteStream::recv(VAddr dst, std::size_t maxlen)
{
    node::Process &proc = ep_.proc();
    std::size_t avail = available();
    if (avail == 0)
        avail = co_await waitReadable();
    if (avail == 0)
        co_return 0; // the peer closed and the ring drained
    co_await proc.detectPenalty(region_);
    std::size_t n = std::min(avail, maxlen);
    std::size_t done = 0;
    while (done < n) {
        std::size_t off = readCount_ % ringBytes_;
        std::size_t chunk = std::min(n - done, ringBytes_ - off);
        co_await proc.copy(dst + VAddr(done), VAddr(region_ + off), chunk);
        readCount_ += std::uint32_t(chunk);
        done += chunk;
    }
    co_await publishAck();
    co_return n;
}

sim::Task<>
ByteStream::recvHost(void *out, std::size_t len)
{
    node::Process &proc = ep_.proc();
    auto *p = static_cast<std::uint8_t *>(out);
    std::size_t done = 0;
    while (done < len) {
        std::size_t avail = available();
        if (avail == 0)
            avail = co_await waitReadable();
        if (avail == 0)
            panic("stream closed mid-record");
        std::size_t off = readCount_ % ringBytes_;
        std::size_t chunk = std::min({len - done, avail, ringBytes_ - off});
        // Reading out of the ring into the decoder's fields is the
        // receive-side copy.
        co_await proc.compute(
            proc.config().copyCallOverhead +
            proc.node().cpu().copyTime(chunk, CacheMode::WriteBack));
        proc.peek(VAddr(region_ + off), p + done, chunk);
        readCount_ += std::uint32_t(chunk);
        done += chunk;
        // Batch acknowledgements: publish when a quarter ring has been
        // consumed; callers flushAck() at message boundaries.
        if (readCount_ - publishedAck_ >= ringBytes_ / 4)
            co_await publishAck();
    }
}

} // namespace shrimp::sock
