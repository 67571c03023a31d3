#include "sock/socket.hh"

#include "base/logging.hh"
#include "base/span.hh"

namespace shrimp::sock
{

namespace
{

/** Measured software overhead of the send/recv paths beyond the raw
 *  transfer: procedure calls, error checks, and socket data-structure
 *  access (the paper reports ~13 us for a small message, split about
 *  evenly between sender and receiver). */
constexpr Tick sendPathOverhead = 5300;
constexpr Tick recvPathOverhead = 5600;

} // namespace

SocketLib::SocketLib(vmmc::Endpoint &ep, SockOptions opt)
    : ep_(ep), opt_(opt),
      stats_("node" + std::to_string(ep.nodeId()) + ".p" +
             std::to_string(ep.pid()) + ".sock"),
      track_(trace::track(stats_.name()))
{
}

SocketLib::Sock &
SocketLib::sock(int fd)
{
    if (fd < 0 || std::size_t(fd) >= fds_.size() || !fds_[fd])
        panic("bad socket descriptor");
    return *fds_[fd];
}

sim::Task<int>
SocketLib::socket()
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    fds_.push_back(std::make_unique<Sock>());
    co_return int(fds_.size() - 1);
}

sim::Task<int>
SocketLib::listen(int fd, std::uint16_t port)
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Fresh)
        co_return -1;
    s.state = State::Listening;
    s.port = port;
    co_return 0;
}

sim::Task<int>
SocketLib::accept(int fd)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    Sock &listener = sock(fd);
    if (listener.state != State::Listening)
        co_return -1;

    // Wait for a hello on the listening "internet" port, then export
    // our ring and import the client's.
    auto stream = std::make_unique<ByteStream>(ep_, opt_.ringBytes);
    vmmc::Status st = co_await stream->accept(listener.port, sockMagic);
    if (st != vmmc::Status::Ok)
        co_return -1;
    fds_.push_back(std::make_unique<Sock>(
        Sock{State::Connected, 0, std::move(stream)}));
    co_return int(fds_.size() - 1);
}

sim::Task<int>
SocketLib::connect(int fd, NodeId node, std::uint16_t port)
{
    node::Process &proc = ep_.proc();
    co_await proc.compute(proc.config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Fresh)
        co_return -1;
    s.stream = std::make_unique<ByteStream>(ep_, opt_.ringBytes);
    vmmc::Status st = co_await s.stream->connect(node, port, sockMagic);
    if (st != vmmc::Status::Ok)
        co_return -1;
    s.state = State::Connected;
    co_return 0;
}

sim::Task<long>
SocketLib::send(int fd, VAddr buf, std::size_t len)
{
    node::Process &proc = ep_.proc();
    trace::ScopedSpan span(proc.sim(), track_, "send");
    // Message origin: the staged id is claimed by whichever packet the
    // stream's first store (or deliberate transfer) forms.
    span::stage(span::origin(track_, "sock.send", proc.sim().now()));
    statSends_.get() += 1;
    statSentBytes_.get() += len;
    co_await proc.compute(proc.config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Connected)
        co_return -1;
    co_await proc.compute(sendPathOverhead);
    co_await s.stream->send(buf, len, opt_.proto);
    co_return long(len);
}

sim::Task<long>
SocketLib::recv(int fd, VAddr buf, std::size_t maxlen)
{
    node::Process &proc = ep_.proc();
    trace::ScopedSpan span(proc.sim(), track_, "recv");
    statRecvs_.get() += 1;
    co_await proc.compute(proc.config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Connected && s.state != State::ShutDown)
        co_return -1;
    std::size_t n = co_await s.stream->recv(buf, maxlen);
    // Checks and socket-structure bookkeeping on the way out.
    co_await proc.compute(recvPathOverhead);
    co_return long(n);
}

sim::Task<long>
SocketLib::recvAll(int fd, VAddr buf, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        long n = co_await recv(fd, buf + VAddr(done), len - done);
        if (n < 0)
            co_return n;
        if (n == 0)
            co_return long(done); // EOF
        done += std::size_t(n);
    }
    co_return long(done);
}

sim::Task<int>
SocketLib::shutdown(int fd)
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    Sock &s = sock(fd);
    if (s.state != State::Connected)
        co_return -1;
    co_await s.stream->sendFin();
    s.state = State::ShutDown;
    co_return 0;
}

sim::Task<int>
SocketLib::close(int fd)
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    Sock &s = sock(fd);
    if (s.stream)
        co_await s.stream->close();
    s.state = State::Closed;
    co_return 0;
}

bool
SocketLib::readable(int fd) const
{
    const Sock &s = *fds_.at(fd);
    if (!s.stream)
        return false;
    return s.stream->available() > 0 || s.stream->finReceived();
}

std::size_t
SocketLib::numOpen() const
{
    std::size_t n = 0;
    for (const auto &s : fds_) {
        if (s && s->state != State::Closed)
            ++n;
    }
    return n;
}

} // namespace shrimp::sock
