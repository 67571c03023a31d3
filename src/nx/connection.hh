/**
 * @file
 * Connection: the point-to-point building block of the NX compatibility
 * library (paper section 4.1). A connection between two processes
 * consists of a receive region exported by each side and imported by the
 * other, plus automatic-update bindings for marshalled data and control
 * information.
 *
 * Region layout (all offsets page-aligned between sections):
 *
 *   [ packet buffers ]  NBUF fixed-size buffers, each PKT_DATA bytes of
 *                       payload followed by a 16-byte descriptor. Data
 *                       is right-justified (word-rounded) against the
 *                       descriptor so a marshalled message plus its
 *                       descriptor is one consecutive write run that the
 *                       NIC combines into a single packet.
 *   [ control page ]    credit ring (receiver -> sender, identifies the
 *                       specific packet buffer freed, since messages may
 *                       be consumed out of order), reply ring (receiver
 *                       answers to large-message scouts: export key +
 *                       offset of the user receive buffer), done ring
 *                       (sender's transfer-complete flags), and a
 *                       request-credit flag.
 *
 * The descriptor stamp is a per-connection monotonically increasing
 * sequence number; stamp 0 means "buffer empty". Because SHRIMP delivers
 * packets in order and the descriptor is written after the payload, a
 * nonzero stamp guarantees the payload is in place.
 *
 * A process's receive regions, one per peer, are consecutive slices of
 * one receive block (NxSystem::init), and every NX poll sleeps on that
 * block: only a peer's deposit into it, or the library's own clearing
 * of a slot, wakes a scan. A sender out of credits sleeps on its own
 * control page, where the credits land.
 *
 * Polls that find nothing cost no memory reads while the memory they
 * read is unchanged: a reply- or done-ring miss is kept with the node's
 * write count and stands until a write touches the control page
 * (Memory::writtenSince), and the occupied-slot masks of the packet
 * buffers are cached the same way in NxProc's per-peer scan table. A
 * wake by one peer's deposit so re-reads only that peer's region.
 */

#ifndef SHRIMP_NX_CONNECTION_HH
#define SHRIMP_NX_CONNECTION_HH

#include <cstdint>
#include <map>
#include <vector>

#include "vmmc/vmmc.hh"

namespace shrimp::nx
{

/** Which small-message send variant to use (the curves of Figure 4). */
enum class SendMode
{
    Auto,      //!< AU marshal for tiny, DU-1copy mid, zero-copy large
    AuMarshal, //!< copy into the AU-bound area (the copy is the send)
    DuTwoCopy, //!< marshal data+descriptor, one deliberate update
    DuOneCopy, //!< data straight from user memory, separate DU for desc
    ZeroCopy,  //!< force the large-message scout protocol
};

/** Library tuning knobs (per NxSystem). */
struct NxOptions
{
    std::size_t pktDataBytes = 2048; //!< payload bytes per packet buffer
    int numBufs = 8;                 //!< packet buffers per direction
    std::size_t largeThreshold = 1024; //!< Auto: scout protocol above this
    std::size_t auThreshold = 256;     //!< Auto: AU marshal below this
    std::size_t safeCopyBytes = 64 * 1024; //!< sender-side safe buffer
};

/** On-wire message descriptor (one per packet buffer). */
struct NxDesc
{
    std::uint32_t stamp = 0; //!< sequence; 0 = empty
    std::uint32_t type = 0;  //!< NX message type
    std::uint32_t size = 0;  //!< payload bytes in this fragment
    std::uint32_t frag = 0;  //!< (index << 16) | total fragments
};

/** Content of a scout message (the "special message descriptor"). */
struct ScoutInfo
{
    std::uint32_t magic = 0x53434f55; // "SCOU"
    std::uint32_t totalLen = 0;
};

/** A reply-ring entry: where the sender should place the data. */
struct ReplyEntry
{
    std::uint32_t stamp = 0; //!< scout stamp being answered; 0 = empty
    std::uint32_t key = 0;   //!< export key of the receiver's user buffer
    std::uint32_t off = 0;   //!< byte offset within that export
    std::uint32_t pad = 0;
};

constexpr std::size_t nxDescBytes = sizeof(NxDesc);
constexpr int nxReplyRing = 8;
constexpr int nxDoneRing = 8;

/**
 * One process's half of a connection to one peer. Owns the local
 * receive region (imported by the peer), the import of the peer's
 * region, and AU-bound staging areas for marshalled data and control.
 */
class Connection
{
  public:
    Connection(vmmc::Endpoint &ep, int my_rank, int peer_rank,
               NodeId peer_node, const NxOptions &opt);

    /** Export @p region, this connection's slice of the process's
     *  receive block, as the local receive region (key derivation is
     *  symmetric). */
    sim::Task<> exportSide(VAddr region);

    /** Import the peer's region and create the AU bindings; call after
     *  every rank finished exportSide(). */
    sim::Task<> importSide();

    int peerRank() const { return peerRank_; }
    NodeId peerNode() const { return peerNode_; }

    // ---- send side -------------------------------------------------------

    /**
     * Take a free peer packet buffer, waiting for a credit if none is
     * free (after prodding the receiver with a notification, as the
     * paper describes).
     * @return buffer index
     */
    sim::Task<int> acquireBuffer();

    /**
     * Send one fragment into peer buffer @p buf_idx using @p mode.
     * @p data points at host memory with the payload (marshal modes) and
     * @p user_addr is the in-simulation source (DuOneCopy).
     */
    sim::Task<> sendFragment(int buf_idx, const NxDesc &desc,
                             const std::uint8_t *data, VAddr user_addr,
                             SendMode mode);

    /** Next stamp for a message/fragment I send. */
    std::uint32_t takeStamp() { return nextSendStamp_++; }

    /** Take the reply ring's answer to scout @p stamp, if it has come:
     *  copy it to @p out and clear its slot. */
    bool findReply(std::uint32_t stamp, ReplyEntry &out);

    /** Whether the reply ring holds an answer to scout @p stamp; the
     *  slot is left as it is. */
    bool hasReply(std::uint32_t stamp);

    /** Write a done flag for scout @p stamp into the peer's done ring. */
    sim::Task<> postDone(std::uint32_t stamp);

    /** Deliberate-update data into the peer's exported user buffer. */
    sim::Task<vmmc::Status> sendDirect(std::uint32_t key, std::size_t off,
                                       VAddr src, std::size_t len);

    // ---- receive side ----------------------------------------------------

    /** Local descriptor of buffer @p i (reads local memory, untimed). */
    NxDesc peekDesc(int i) const;

    /** Just the stamp word of buffer @p i's descriptor: the empty test,
     *  via the word-peek fast path. */
    std::uint32_t peekStamp(int i) const;

    /**
     * Bit i set iff buffer i's descriptor stamp is nonzero, i.e. the
     * slots a receive scan has to look at. Reads every stamp; NxProc's
     * scan table calls it only when a write has touched the packet
     * buffers since its last call (Memory::writtenSince).
     */
    std::uint64_t occupiedSlots() const;

    /** Bytes of the receive region: the packet buffers, then the
     *  control page. */
    std::size_t regionBytes() const;

    /** Physical start of the packet buffers (fixed at exportSide()). */
    PAddr dataPa() const { return dataPa_; }

    /** Packet buffers, rounded up to whole pages (the scans and every
     *  control-page address use it, so it is computed once). */
    std::size_t dataAreaBytes() const { return dataBytes_; }

    /** Virtual address of buffer @p i's payload end (descriptor start). */
    VAddr descAddr(int i) const;

    /** Copy a consumed fragment out of buffer @p i into @p dst. */
    sim::Task<> copyOut(int i, std::size_t size, VAddr dst,
                        std::size_t dst_len, std::size_t dst_off);

    /** Read a fragment's payload into host memory (for scout decode). */
    void peekPayload(int i, std::size_t size, void *out) const;

    /** Mark buffer @p i consumed and return its credit to the sender. */
    sim::Task<> releaseBuffer(int i);

    /** Post a scout reply: tell the sender where to put the data and
     *  how much it may send. */
    sim::Task<> postReply(std::uint32_t stamp, std::uint32_t key,
                          std::uint32_t off, std::uint32_t accept);

    /** Take the sender's done flag for scout @p stamp, if it is up,
     *  and clear its slot. */
    bool findDone(std::uint32_t stamp);

    // ---- bookkeeping -----------------------------------------------------

    vmmc::Endpoint &endpoint() { return ep_; }
    const NxOptions &options() const { return opt_; }

    std::uint64_t creditStalls() const { return creditStalls_; }

  private:
    static std::uint32_t regionKey(int importer_rank, int exporter_rank);

    std::size_t bufStride() const { return opt_.pktDataBytes + nxDescBytes; }

    // Control-area offsets, relative to the control page. AU writes go
    // through auCtl_ + off; local reads through ctlBase() + off.
    std::size_t creditRingOff() const { return 0; }
    std::size_t creditEntries() const { return std::size_t(2 * opt_.numBufs); }
    std::size_t replyRingOff() const;
    std::size_t doneRingOff() const;
    std::size_t reqFlagOff() const;

    /** Local (receive-side) address of the control page. */
    VAddr ctlBase() const { return VAddr(region_ + dataAreaBytes()); }

    /**
     * A ring lookup that found nothing: the stamp it looked for and the
     * node's writeCount() the read was current as of. Until a write
     * touches the control page (Memory::writtenSince), a lookup of the
     * same stamp is the same miss, so it reads nothing. A consuming hit
     * clears its slot with a write, so a hit never leaves a stale miss.
     */
    struct RingMiss
    {
        std::uint32_t stamp = 0; //!< 0 matches no lookup: stamps start at 1
        std::uint64_t seq = 0;
    };

    /** The slot of the ring at control-page offset @p ring_off
     *  (@p entries entries of @p entry_bytes, the stamp word first)
     *  that holds @p stamp, or -1; @p miss caches the last miss. The
     *  one scan behind findReply, hasReply and findDone. */
    int ringFind(std::size_t ring_off, std::size_t entry_bytes, int entries,
                 std::uint32_t stamp, RingMiss &miss);

    vmmc::Endpoint &ep_;
    int myRank_;
    int peerRank_;
    NodeId peerNode_;
    NxOptions opt_;
    std::size_t dataBytes_; //!< dataAreaBytes()

    VAddr region_ = 0;    //!< local receive region (peer writes here)
    VAddr auData_ = 0;    //!< AU-bound marshal area -> peer packet bufs
    VAddr auCtl_ = 0;     //!< AU-bound area -> peer control page
    VAddr stage_ = 0;     //!< staging area for DU marshalling
    int importHandle_ = -1;
    PAddr dataPa_ = 0;    //!< physical start of the packet buffers
    PAddr ctlPa_ = 0;     //!< physical address of the control page

    /** Import cache for peers' exported user receive buffers (the
     *  "if it hasn't done so already, the sender imports that buffer"
     *  of the zero-copy protocol). */
    std::map<std::uint32_t, int> userImports_;

    // send-side state
    std::vector<int> freeBufs_;
    std::uint32_t creditsTaken_ = 0; //!< credits consumed from the ring
    std::uint32_t nextSendStamp_ = 1;

    RingMiss replyMiss_; //!< send side: last reply-ring miss
    RingMiss doneMiss_;  //!< receive side: last done-ring miss

    // receive-side state
    std::uint32_t creditsReturned_ = 0;
    std::uint32_t repliesPosted_ = 0;
    std::uint32_t donesPosted_ = 0;

    std::uint64_t creditStalls_ = 0;
};

} // namespace shrimp::nx

#endif // SHRIMP_NX_CONNECTION_HH
