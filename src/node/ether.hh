/**
 * @file
 * EtherNet: the commodity Ethernet that connects the PC nodes besides
 * the fast backplane (paper section 3.1). It carries diagnostics and
 * low-priority control traffic: every binding's rendezvous (the SHRIMP
 * daemons' import/export negotiation, and the socket, VRPC and SRPC
 * hellos that trade export keys). It is slow (milliseconds) and never
 * on the data critical path.
 *
 * Frames are addressed to a (node, port) pair; each pair has a FIFO
 * receive queue created on demand. The one rendezvous every user
 * shares is here: request() sends a message from a fresh reply port
 * (allocPort), which lives only until its one reply is taken; reply()
 * answers a frame at its source; decode() size-checks a frame, and
 * listen() waits for a well-formed hello. A frame is peer input: a
 * malformed one is dropped or fails the call, and never panics.
 */

#ifndef SHRIMP_NODE_ETHER_HH
#define SHRIMP_NODE_ETHER_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "base/config.hh"
#include "sim/bus.hh"
#include "sim/simulator.hh"
#include "sim/sync.hh"

namespace shrimp::node
{

struct EtherFrame
{
    NodeId src = invalidNode;
    std::uint16_t srcPort = 0;
    NodeId dst = invalidNode; //!< where the frame arrived
    std::uint16_t dstPort = 0;
    std::vector<std::uint8_t> data;
};

/** The binding hello that sockets, VRPC and SRPC trade: the sender's
 *  export key under the library's magic. request() fills in the reply
 *  port. */
struct Hello
{
    std::uint32_t magic = 0;
    std::uint32_t key = 0;
    std::uint16_t replyPort = 0;
    std::uint16_t pad = 0;
};

/** A hello as listen() takes it, with the frame that an answer goes
 *  back along. */
struct HelloFrame
{
    EtherFrame frame;
    Hello hello;
};

class EtherNet
{
  public:
    /** Port reserved for the SHRIMP daemons. */
    static constexpr std::uint16_t daemonPort = 1;

    EtherNet(sim::Simulator &sim, const MachineConfig &cfg, int num_nodes);

    /** Transmit @p data to (@p to, @p port); delivery is asynchronous
     *  but ordered (one shared segment). */
    void send(NodeId from, std::uint16_t from_port, NodeId to,
              std::uint16_t port, std::vector<std::uint8_t> data);

    /** The receive queue for (node, port); created on demand. */
    sim::Channel<EtherFrame> &rxQueue(NodeId node, std::uint16_t port);

    /** Take the next frame on (node, port), then drop the port's queue:
     *  the reply wait of a one-shot request on an allocPort() port. */
    sim::Task<EtherFrame> recvOnce(NodeId node, std::uint16_t port);

    /** Allocate an ephemeral port number (>= 1024) for @p node that has
     *  no live receive queue; fatal when every one does. */
    std::uint16_t allocPort(NodeId node);

    /** The bytes of @p msg, as a frame carries them. */
    template <typename T>
    static std::vector<std::uint8_t>
    encode(const T &msg)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<std::uint8_t> data(sizeof(T));
        std::memcpy(data.data(), &msg, sizeof(T));
        return data;
    }

    /** @p frame's payload as a @p T, or nullopt unless it is exactly
     *  sizeof(T) bytes. */
    template <typename T>
    static std::optional<T>
    decode(const EtherFrame &frame)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (frame.data.size() != sizeof(T))
            return std::nullopt;
        T msg;
        std::memcpy(&msg, frame.data.data(), sizeof(T));
        return msg;
    }

    /** One-shot request: send @p msg from a fresh reply port on @p from
     *  to (@p to, @p port), then take the one reply there and decode it
     *  (nullopt when it is not a @p Reply). */
    template <typename Reply, typename Req>
    sim::Task<std::optional<Reply>>
    request(NodeId from, NodeId to, std::uint16_t port, Req msg)
    {
        const std::uint16_t reply_port = allocPort(from);
        if constexpr (requires { msg.replyPort; })
            msg.replyPort = reply_port;
        send(from, reply_port, to, port, encode(msg));
        const EtherFrame frame = co_await recvOnce(from, reply_port);
        co_return decode<Reply>(frame);
    }

    /** Answer @p req with @p msg, from where it arrived to its source. */
    template <typename T>
    void
    reply(const EtherFrame &req, const T &msg)
    {
        send(req.dst, req.dstPort, req.src, req.srcPort, encode(msg));
    }

    /** Wait on (@p node, @p port) for a hello carrying @p magic; every
     *  other frame is dropped with a warning. */
    sim::Task<HelloFrame> listen(NodeId node, std::uint16_t port,
                                 std::uint32_t magic);

    /** Receive queues currently allocated, on all nodes. */
    std::size_t liveQueues() const { return rx_.size(); }

    std::uint64_t framesDelivered() const { return delivered_; }

  private:
    static constexpr std::uint16_t firstEphemeralPort = 1024;

    static std::uint64_t
    queueKey(NodeId node, std::uint16_t port)
    {
        return (std::uint64_t(node) << 16) | port;
    }

    sim::Task<> deliver(EtherFrame frame);

    sim::Simulator &sim_;
    const MachineConfig &cfg_;
    int numNodes_;
    sim::Bus segment_;
    std::map<std::uint64_t, std::unique_ptr<sim::Channel<EtherFrame>>> rx_;
    std::vector<std::uint16_t> nextPort_;
    std::uint64_t delivered_ = 0;
};

} // namespace shrimp::node

#endif // SHRIMP_NODE_ETHER_HH
