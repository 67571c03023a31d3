/**
 * @file
 * SocketLib: the SHRIMP stream-sockets compatibility library (paper
 * section 4.3), implemented entirely at user level on VMMC.
 *
 * Connection establishment uses the Ethernet, as the paper's regular
 * internet-domain socket does, to exchange the data needed to set up
 * the two VMMC mappings (one per direction): ByteStream::connect and
 * accept trade the export keys in one hello each way. (The paper keeps
 * that Ethernet connection open to detect a broken peer; the model does
 * not.) Data then flows through circular buffers (ByteStream), two per
 * connection.
 *
 * Three data protocols are provided, as in the paper: two-copy DU (the
 * sender-side copy dodges alignment restrictions), one-copy DU (direct
 * from user memory when alignment allows), and two-copy AU (the sender
 * copy acts as the send). A zero-copy or one-copy-AU protocol would
 * require exporting user pages to an untrusted peer, which sockets
 * semantics forbid.
 */

#ifndef SHRIMP_SOCK_SOCKET_HH
#define SHRIMP_SOCK_SOCKET_HH

#include <deque>
#include <memory>
#include <vector>

#include "base/stats.hh"
#include "base/trace.hh"
#include "sock/ring.hh"

namespace shrimp::sock
{

/** The magic of the sockets library's binding hello. */
constexpr std::uint32_t sockMagic = 0x534f434b; // "SOCK"

struct SockOptions
{
    std::size_t ringBytes = 8 * 1024;
    StreamProto proto = StreamProto::AuTwoCopy;
};

class SocketLib
{
  public:
    explicit SocketLib(vmmc::Endpoint &ep, SockOptions opt = SockOptions{});

    vmmc::Endpoint &endpoint() { return ep_; }
    const SockOptions &options() const { return opt_; }

    /** Create a stream socket. @return descriptor. */
    sim::Task<int> socket();

    /** Bind + listen on @p port (an Ethernet "internet" port). */
    sim::Task<int> listen(int fd, std::uint16_t port);

    /** Accept one connection; blocks. @return connected descriptor. */
    sim::Task<int> accept(int fd);

    /** Connect to (@p node, @p port); blocks. @return 0 or -1. */
    sim::Task<int> connect(int fd, NodeId node, std::uint16_t port);

    /**
     * Stream send: blocks until all @p len bytes are queued toward the
     * peer (sockets may buffer). @return bytes sent or -1.
     */
    sim::Task<long> send(int fd, VAddr buf, std::size_t len);

    /**
     * Stream receive: blocks until at least one byte (or EOF).
     * @return bytes received; 0 at orderly shutdown; -1 on bad fd.
     */
    sim::Task<long> recv(int fd, VAddr buf, std::size_t maxlen);

    /** Receive exactly @p len bytes (convenience; not BSD). */
    sim::Task<long> recvAll(int fd, VAddr buf, std::size_t len);

    /** Half-close: no more sends; peer's recv drains then returns 0. */
    sim::Task<int> shutdown(int fd);

    /** Close the descriptor (sends FIN if still open). */
    sim::Task<int> close(int fd);

    /** select()-style readability test. */
    bool readable(int fd) const;

    /** Per-send protocol override (Figure 7's curves). */
    void setProto(StreamProto p) { opt_.proto = p; }

    std::size_t numOpen() const;

  private:
    enum class State
    {
        Fresh,
        Listening,
        Connected,
        ShutDown,
        Closed,
    };

    struct Sock
    {
        State state = State::Fresh;
        std::uint16_t port = 0; //!< listen port
        std::unique_ptr<ByteStream> stream;
    };

    Sock &sock(int fd);

    vmmc::Endpoint &ep_;
    SockOptions opt_;
    std::vector<std::unique_ptr<Sock>> fds_;
    stats::Group stats_;
    trace::TrackId track_;
    // Counted per send()/recv(); each is looked up by name once, at
    // its first use.
    stats::LazyCounter statSends_{stats_, "sends"};
    stats::LazyCounter statSentBytes_{stats_, "sentBytes"};
    stats::LazyCounter statRecvs_{stats_, "recvs"};
};

} // namespace shrimp::sock

#endif // SHRIMP_SOCK_SOCKET_HH
