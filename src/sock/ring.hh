/**
 * @file
 * ByteStream: one endpoint of a full-duplex, flow-controlled byte stream
 * over VMMC — the circular-buffer building block of the sockets library
 * (paper section 4.3) and of the VRPC stream layer (section 4.2). Both
 * bind a stream with connect()/accept(): each side exports its region,
 * the two trade hellos over the Ethernet, and each attaches to the
 * other's region.
 *
 * Each side owns a local receive region: a circular data buffer followed
 * by a control page. Only the *peer* writes a side's region:
 *
 *   ctl[0]  bytes the peer has written into my ring   (cumulative)
 *   ctl[8]  bytes the peer has consumed from its ring (acks my sends)
 *   ctl[16] peer's FIN flag
 *
 * Control words always travel by automatic update (non-combinable, so
 * they leave immediately); data travels by the protocol chosen per
 * send: AU through a bound staging area (the copy is the send), DU
 * straight from user memory (word alignment permitting), or DU from a
 * staging copy. In-order delivery guarantees the control word arrives
 * after its data.
 */

#ifndef SHRIMP_SOCK_RING_HH
#define SHRIMP_SOCK_RING_HH

#include <cstdint>

#include "vmmc/vmmc.hh"

namespace shrimp::sock
{

/** Data-transfer protocol for one send (the curves of Figure 7). */
enum class StreamProto
{
    AuTwoCopy, //!< copy into the AU-bound send area (sender copy = send)
    DuOneCopy, //!< deliberate update straight from user memory
    DuTwoCopy, //!< copy to staging, then one deliberate update
};

class ByteStream
{
  public:
    ByteStream(vmmc::Endpoint &ep, std::size_t ring_bytes);

    std::size_t ringBytes() const { return ringBytes_; }

    /** Client side of a binding: export the local region to @p server,
     *  send a hello under @p magic to its listener on @p port, and
     *  attach to the region the answer names. A malformed answer fails
     *  with BadReply. */
    sim::Task<vmmc::Status> connect(NodeId server, std::uint16_t port,
                                    std::uint32_t magic);

    /** Server side: wait on @p port for a hello under @p magic (others
     *  are dropped with a warning), export the local region to its
     *  sender, attach to the region it names, and answer. */
    sim::Task<vmmc::Status> accept(std::uint16_t port, std::uint32_t magic);

    /** Raise FIN (unless sendFin() already did) and drop the import; a
     *  stream that never attached has nothing to close. */
    sim::Task<> close();

    /** Allocate and export the local receive region under @p key. */
    sim::Task<vmmc::Status> exportLocal(std::uint32_t key, vmmc::Perm perm);

    /** Import the peer's region (exported under @p key on @p peer) and
     *  set up the AU bindings for data staging and control; on failure
     *  the stream is left unattached. */
    sim::Task<vmmc::Status> attachRemote(NodeId peer, std::uint32_t key);

    /** Tear down the import (close path). */
    sim::Task<> detachRemote();

    bool attached() const { return importHandle_ >= 0; }

    // ---- sending --------------------------------------------------------

    /** Space the peer's ring can accept right now. */
    std::size_t freeSpace() const;

    /**
     * Send @p len bytes from simulated memory @p src, blocking for ring
     * space as needed. Updates the peer's control word after the data.
     */
    sim::Task<> send(VAddr src, std::size_t len, StreamProto proto);

    /** Send from host memory (RPC marshalling writes straight into the
     *  AU-bound area: the encode is the transfer). The DU protocols
     *  stage the bytes in simulated memory first. With @p publish false
     *  the control word is deferred (VRPC publishes once per transfer,
     *  "the total length written from the last and previous transfers");
     *  a half-full ring still forces an intermediate publish so flow
     *  control cannot wedge. */
    sim::Task<> sendHost(const void *data, std::size_t len,
                         StreamProto proto = StreamProto::AuTwoCopy,
                         bool publish = true);

    /** Publish any deferred control-word update. */
    sim::Task<> flushTail();

    /** Publish any deferred consumption acknowledgement. */
    sim::Task<> flushAck();

    /** Receive exactly @p len bytes into host memory (RPC decode).
     *  Acknowledgements are batched; call flushAck() at message end. */
    sim::Task<> recvHost(void *out, std::size_t len);

    /** Raise our FIN flag at the peer. */
    sim::Task<> sendFin();

    // ---- receiving ------------------------------------------------------

    /** Bytes ready in the local ring. */
    std::size_t available() const;

    /** True once the peer raised FIN. */
    bool finReceived() const;

    /**
     * Poll the control block until a byte or FIN is there; @return
     * available(), 0 meaning the peer closed and the ring drained.
     * Receivers call it only when available() is 0, so a receive that
     * finds data takes no frame here.
     */
    sim::Task<std::size_t> waitReadable();

    /**
     * Receive up to @p maxlen bytes into simulated memory; blocks until
     * at least one byte (or FIN) is available.
     * @return bytes received; 0 means the peer closed and the ring
     *         drained.
     */
    sim::Task<std::size_t> recv(VAddr dst, std::size_t maxlen);

    std::uint64_t bytesSent() const { return written_; }
    std::uint64_t bytesReceived() const { return readCount_; }

    vmmc::Endpoint &endpoint() { return ep_; }

  private:
    std::size_t ctlOff() const { return ringBytes_; }

    /** Wait for acks until at least @p min_bytes can be sent; @return
     *  the free space. Senders check freeSpace() first and call this
     *  only when short, so a send with room takes no frame here. */
    sim::Task<std::size_t> waitSpace(std::size_t min_bytes);

    /** Write one contiguous chunk into the peer ring at our write
     *  position, from simulated address @p src; DU-2copy may take host
     *  bytes @p host instead (sendHost makes its AU stores itself). */
    sim::Task<> putChunk(const void *host, VAddr src, std::size_t len,
                         StreamProto proto);

    /** Publish our cumulative write counter to the peer. */
    sim::Task<> publishTail();

    /** Publish our cumulative read counter to the peer. */
    sim::Task<> publishAck();

    vmmc::Endpoint &ep_;
    std::size_t ringBytes_;

    VAddr region_ = 0;  //!< local ring + control page (peer writes)
    VAddr auData_ = 0;  //!< AU staging bound to the peer's ring
    VAddr auCtl_ = 0;   //!< AU staging bound to the peer's control page
    VAddr stage_ = 0;   //!< DU-2copy staging
    int importHandle_ = -1;

    std::uint32_t written_ = 0;   //!< bytes sent (cumulative)
    std::uint32_t readCount_ = 0; //!< bytes consumed locally (cumulative)
    std::uint32_t publishedTail_ = 0; //!< last control word sent
    std::uint32_t publishedAck_ = 0;  //!< last acknowledgement sent
    bool finSent_ = false;
};

} // namespace shrimp::sock

#endif // SHRIMP_SOCK_RING_HH
