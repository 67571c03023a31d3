#include "rpc/vrpc_stream.hh"

#include <cstring>

#include "base/logging.hh"

namespace shrimp::rpc
{

std::uint32_t VrpcTransport::keyCounter_ = 0;

VrpcTransport::VrpcTransport(vmmc::Endpoint &ep, std::size_t queue_bytes)
    : ep_(ep), queueBytes_(queue_bytes)
{
}

std::uint32_t
VrpcTransport::nextKey()
{
    // Key namespace "RP": unique per (node, pid, counter).
    return 0x52500000u + (std::uint32_t(ep_.nodeId()) << 14) +
           (std::uint32_t(ep_.pid()) << 10) + (keyCounter_++ & 0x3FF);
}

namespace
{

std::vector<std::uint8_t>
packHello(const VrpcTransport::Hello &h)
{
    std::vector<std::uint8_t> v(sizeof(h));
    std::memcpy(v.data(), &h, sizeof(h));
    return v;
}

VrpcTransport::Hello
unpackHello(const std::vector<std::uint8_t> &data)
{
    VrpcTransport::Hello h{};
    if (data.size() != sizeof(h))
        panic("malformed VRPC handshake frame");
    std::memcpy(&h, data.data(), sizeof(h));
    return h;
}

} // namespace

sim::Task<bool>
VrpcTransport::connect(NodeId server, std::uint16_t port)
{
    node::EtherNet &ether = ep_.proc().node().ether();
    stream_ = std::make_unique<sock::ByteStream>(ep_, queueBytes_);
    std::uint32_t key = nextKey();
    vmmc::Status es =
        co_await stream_->exportLocal(key, vmmc::Perm::onlyNode(server));
    if (es != vmmc::Status::Ok)
        co_return false;

    std::uint16_t reply_port = ether.allocPort(ep_.nodeId());
    Hello hello{helloMagic, key, reply_port, 0};
    ether.send(ep_.nodeId(), reply_port, server, port, packHello(hello));

    node::EtherFrame frame =
        co_await ether.recvOnce(ep_.nodeId(), reply_port);
    Hello ack = unpackHello(frame.data);
    if (ack.magic != helloMagic)
        co_return false;
    vmmc::Status as = co_await stream_->attachRemote(server, ack.key);
    co_return as == vmmc::Status::Ok;
}

sim::Task<bool>
VrpcTransport::acceptFrom(const node::EtherFrame &syn,
                          std::uint16_t listen_port)
{
    node::EtherNet &ether = ep_.proc().node().ether();
    Hello hello = unpackHello(syn.data);
    if (hello.magic != helloMagic)
        co_return false;

    stream_ = std::make_unique<sock::ByteStream>(ep_, queueBytes_);
    std::uint32_t key = nextKey();
    vmmc::Status es =
        co_await stream_->exportLocal(key, vmmc::Perm::onlyNode(syn.src));
    if (es != vmmc::Status::Ok)
        co_return false;
    vmmc::Status as = co_await stream_->attachRemote(syn.src, hello.key);
    if (as != vmmc::Status::Ok)
        co_return false;

    Hello ack{helloMagic, key, 0, 0};
    ether.send(ep_.nodeId(), listen_port, syn.src, hello.replyPort,
               packHello(ack));
    co_return true;
}

sim::Task<>
VrpcTransport::close()
{
    if (stream_) {
        co_await stream_->sendFin();
        if (stream_->attached())
            co_await stream_->detachRemote();
    }
}

} // namespace shrimp::rpc
