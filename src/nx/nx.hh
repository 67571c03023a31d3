/**
 * @file
 * The NX message-passing compatibility library (paper section 4.1): the
 * Intel NX interface implemented entirely at user level on VMMC.
 *
 * Small messages use the one-copy protocol: the sender places data and a
 * descriptor in a fixed-size packet buffer on the receiver (marshalled
 * through an automatic-update binding, or sent by deliberate update);
 * the receiver scans descriptors, copies the payload out, and returns a
 * credit naming the specific buffer (consumption may be out of order).
 * Messages larger than a packet buffer are fragmented.
 *
 * Large messages use the zero-copy protocol: a "scout" descriptor goes
 * ahead; the sender starts making a safe copy; the receive call answers
 * with the export key/offset of the user receive buffer; the sender
 * transfers directly into it (stopping the safe copy the moment the
 * reply arrives) and raises a done flag. A user buffer that cannot be
 * exported (misaligned, an odd truncated length, or pages already held
 * by a smaller window) gets a library bounce buffer as the landing
 * zone instead, copied out once the done flag is up.
 *
 * Typed receives (crecv/irecv with a type selector), isend/irecv with
 * msgwait, iprobe, and the NX global operations gsync()/gdsum()/
 * gdhigh() are provided; infocount()/infotype()/infonode() report on
 * the last message received, as in NX.
 *
 * A process has a connection to every other process. Its N-1 receive
 * regions form one receive block, and every poll sleeps on that block,
 * which holds everything a rescan reads: a write elsewhere on the node
 * (the process's own stores, data landing in a user buffer, another
 * process's traffic) wakes no scan. A wake still rescans every
 * connection, so a poll that finds nothing is kept independent of the
 * peer count: the receive scan reads a dense per-peer table of
 * occupied-slot masks, each re-read only after a write to its packet
 * buffers; ring lookups cache their misses (Connection::ringFind); and
 * an entry point skips the progress engine, coroutine frames included,
 * when progressDue() says it has nothing to do.
 */

#ifndef SHRIMP_NX_NX_HH
#define SHRIMP_NX_NX_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "base/stats.hh"
#include "base/trace.hh"
#include "nx/connection.hh"

namespace shrimp::nx
{

class NxSystem;

/** Matches any (user) message type, as in NX. */
constexpr long nxAnyType = -1;

/** Message types at and above this value are reserved for the library
 *  (global operations); typesel -1 does not match them. */
constexpr long nxReservedType = 0x40000000;

/** Descriptor frag word marking a scout message. */
constexpr std::uint32_t nxScoutFrag = 0xFFFFFFFFu;

/** What the last receive delivered. */
struct RecvInfo
{
    std::size_t count = 0; //!< full message size (pre-truncation)
    long type = 0;
    int node = -1;
};

class NxProc
{
  public:
    NxProc(vmmc::Endpoint &ep, int rank, NxSystem &system);

    int mynode() const { return rank_; }
    int numnodes() const;
    vmmc::Endpoint &endpoint() { return ep_; }
    Connection &conn(int peer);

    // ---- blocking point-to-point ---------------------------------------

    /** Blocking typed send. Returns when the user buffer is reusable. */
    sim::Task<> csend(long type, VAddr buf, std::size_t len, int dest);

    /** Blocking typed receive; @return the delivered byte count
     *  (truncated to @p maxlen; infocount() has the full size). */
    sim::Task<std::size_t> crecv(long typesel, VAddr buf,
                                 std::size_t maxlen);

    /**
     * In-place receive: consume a (one-copy-protocol) message without
     * copying it out of the packet buffers — the application reads the
     * data where it lies and the buffers are credited back. Used by
     * applications that can process data in the communication buffer
     * (the AU-1copy measurement of Figure 4). Large-protocol (scout)
     * messages cannot be taken in place.
     * @return the message size.
     */
    sim::Task<std::size_t> crecvInPlace(long typesel);

    // ---- asynchronous --------------------------------------------------

    /** Asynchronous send; msgwait() on the returned id. */
    sim::Task<int> isend(long type, VAddr buf, std::size_t len, int dest);

    /** Post an asynchronous receive; msgwait() on the returned id. */
    sim::Task<int> irecv(long typesel, VAddr buf, std::size_t maxlen);

    /** Wait for an isend/irecv to complete. */
    sim::Task<> msgwait(int msg_id);

    /** True if msgwait(@p msg_id) would not block. */
    sim::Task<bool> msgdone(int msg_id);

    /** True if a message matching @p typesel has arrived. */
    sim::Task<bool> iprobe(long typesel);

    /** Block until a message matching @p typesel has arrived (cprobe);
     *  the message is not consumed. infocount()/infotype()/infonode()
     *  describe it afterwards. */
    sim::Task<> cprobe(long typesel);

    /** Combined send + receive (csendrecv): send @p type/@p buf/@p len
     *  to @p dest, then receive a message matching @p typesel.
     *  @return received byte count. */
    sim::Task<std::size_t> csendrecv(long type, VAddr buf,
                                     std::size_t len, int dest,
                                     long typesel, VAddr rbuf,
                                     std::size_t maxlen);

    // ---- info about the last completed receive --------------------------

    std::size_t infocount() const { return info_.count; }
    long infotype() const { return info_.type; }
    int infonode() const { return info_.node; }

    // ---- global operations ----------------------------------------------

    /** Barrier across all processes (dissemination algorithm). */
    sim::Task<> gsync();

    /** Global sum of doubles; every rank gets the result. */
    sim::Task<double> gdsum(double value);

    /** Global max of doubles. */
    sim::Task<double> gdhigh(double value);

    /** Per-library progress: completes pending large-message transfers
     *  and fills posted irecvs. Called from every NX entry point for
     *  which progressDue() holds. */
    sim::Task<> progress();

    /**
     * Whether progress() has anything to do: a pending large send's
     * reply is in its ring, or a posted receive is unfilled. When it is
     * false, progress() would reach no co_await that suspends or
     * charges time, so skipping it changes no simulated event.
     */
    bool progressDue();

    /** Complete pending large sends whose scout replies have arrived. */
    sim::Task<> progressSends();

    /** Attempt delivery into posted asynchronous receives. */
    sim::Task<> progressRecvs();

    /** Send-mode override for experiments (Figure 4's curves). */
    void setSendMode(SendMode m) { forcedMode_ = m; }

  private:
    friend class NxSystem;

    struct PendingLarge
    {
        int peer;
        std::uint32_t stamp;
        VAddr src;       //!< safe-copy area (data already safe)
        std::size_t len; //!< bytes to transfer
        long type;
    };

    struct PostedRecv
    {
        int id;
        long typesel;
        VAddr buf;
        std::size_t maxlen;
        bool done = false;
        // large-message continuation: waiting for the sender's done flag
        bool largeWait = false;
        int largePeer = -1;
        std::uint32_t largeStamp = 0;
        VAddr bounce = 0; //!< landing zone when not buf itself
        RecvInfo info;
    };

    struct Match
    {
        int peer;
        int bufIdx;
        NxDesc desc;
    };

    /**
     * One peer's entry in the receive scan table: where that
     * connection's packet buffers lie in node memory, which of them
     * hold a descriptor, and the node's writeCount() the mask is
     * current as of. The mask is exact until a write touches the range
     * (Memory::writtenSince), so a scan re-reads only the masks whose
     * buffers were written.
     */
    struct PeerScan
    {
        PAddr dataPa = 0;
        std::size_t dataBytes = 0; //!< 0 for the self entry
        std::uint64_t slots = 0;   //!< Connection::occupiedSlots()
        std::uint64_t seq = 0;
    };

    /** Scan all connections for the best matching descriptor. */
    std::optional<Match> scanMatch(long typesel);

    /** One iteration of a poll loop: sleep until a write lands in the
     *  receive block, then charge one poll check. */
    sim::Task<> pollRecvBlock()
    {
        return ep_.proc().pollSleepPhys(recvPa_, recvBytes_);
    }

    /** The global reduction behind gdsum and gdhigh: rank 0 folds every
     *  other rank's value into its own with @p combine and sends each
     *  the result. */
    sim::Task<double> reduce(double value,
                             double (*combine)(double, double));

    /** Whether a pending large send's reply is in its ring, i.e.
     *  progressSends() has a transfer to finish. */
    bool replyArrived();

    /** Resolve Auto into a concrete mode for this message. */
    SendMode resolveMode(VAddr buf, std::size_t len) const;

    /** The small/fragmented send path. */
    sim::Task<> sendFragmented(int dest, long type, VAddr buf,
                               std::size_t len, SendMode mode);

    /** The zero-copy large-message send path. */
    sim::Task<> sendLarge(int dest, long type, VAddr buf, std::size_t len);

    /** Consume a small/fragmented message found by scanMatch. With
     *  @p in_place the payload copies are skipped (buffers credited
     *  back after the application touches the data where it lies). */
    sim::Task<RecvInfo> consumeSmall(const Match &m, VAddr buf,
                                     std::size_t maxlen,
                                     bool in_place = false);

    /** Answer a scout: set up the zero-copy landing zone and reply.
     *  The sender raises the done flag for the scout's stamp when the
     *  data is in place.
     *  @return the bounce buffer the data lands in, or 0 when it lands
     *  in @p buf itself. */
    sim::Task<VAddr> answerScout(const Match &m, VAddr buf,
                                 std::size_t maxlen, RecvInfo &info);

    /** After the done flag: charge detection of the landed data and,
     *  if it landed in @p bounce, copy @p n bytes out into @p buf and
     *  free the bounce buffer. */
    sim::Task<> landLarge(VAddr bounce, VAddr buf, std::size_t n);

    /** Wait for a large transfer's done flag, making progress. */
    sim::Task<> waitDone(int peer, std::uint32_t stamp);

    /** Find or create an export covering the receive window.
     *  @return its key, or 0 if the pages cannot be exported. */
    sim::Task<std::uint32_t> exportWindow(VAddr base, std::size_t len,
                                          std::uint32_t &off_out);

    /** Take a free exported bounce buffer of at least @p len bytes,
     *  exporting a new one if none fits. @p key_out gets its key. */
    sim::Task<VAddr> acquireBounce(std::size_t len,
                                   std::uint32_t &key_out);

    /**
     * Arm the background completion agent: a library task that drives
     * pending large sends to completion even if the application never
     * re-enters the library (the safe-copy lets csend return early; the
     * remaining transfer must still happen).
     */
    void armCompletion();
    sim::Task<> completionAgent();

    /** Take a safe-copy buffer from the pool (allocating if empty). */
    VAddr acquireSafeBuffer();
    void releaseSafeBuffer(VAddr buf);

    vmmc::Endpoint &ep_;
    int rank_;
    NxSystem &system_;
    std::vector<std::unique_ptr<Connection>> conns_; //!< index = peer rank
    std::vector<PeerScan> scan_; //!< index = peer rank; set by init()
    PAddr recvPa_ = 0;           //!< the receive block; set by init()
    std::size_t recvBytes_ = 0;  //!< 0 for a lone rank (no peers)
    std::vector<VAddr> safePool_; //!< reusable safe-copy buffers
    VAddr scratch_ = 0;    //!< staging for global ops
    std::vector<PendingLarge> pendingLarge_;
    bool completionArmed_ = false;
    std::deque<PostedRecv> posted_;
    std::vector<int> doneIds_;
    int nextMsgId_ = 1;
    RecvInfo info_;
    SendMode forcedMode_ = SendMode::Auto;

    struct ExportedWindow
    {
        VAddr base;
        std::size_t len;
        std::uint32_t key;
    };
    std::vector<ExportedWindow> windows_;

    struct Bounce
    {
        VAddr base;
        std::size_t len;
        std::uint32_t key;
        bool busy;
    };
    std::vector<Bounce> bounces_;
    std::uint32_t nextWindowKey_; //!< windows and bounce buffers

    stats::Group stats_;
    trace::TrackId track_;
    // Per-call path; stat lookups hoisted to construction.
    stats::Counter &statCsends_;
    stats::Counter &statSentBytes_;
    stats::Distribution &statCsendBytes_;
    stats::Counter &statCrecvs_;
    stats::Counter &statScouts_;
};

/**
 * NxSystem: the NX runtime over a VMMC System — one process per rank
 * (placed round-robin over the nodes), with a connection set up between
 * each pair of processes at initialization time.
 */
class NxSystem
{
  public:
    /** @param nprocs number of NX processes (<= one per node by default
     *  placement; more than one per node is allowed). */
    NxSystem(vmmc::System &sys, int nprocs,
             NxOptions opt = NxOptions{});

    /** Build all endpoints and pairwise connections. Must complete
     *  before any send/receive; run it inside the simulation. */
    sim::Task<> init();

    int numnodes() const { return nprocs_; }
    NxProc &proc(int rank) { return *procs_.at(rank); }
    const NxOptions &options() const { return opt_; }
    vmmc::System &vmmcSystem() { return sys_; }

  private:
    vmmc::System &sys_;
    int nprocs_;
    NxOptions opt_;
    std::vector<std::unique_ptr<NxProc>> procs_;
};

} // namespace shrimp::nx

#endif // SHRIMP_NX_NX_HH
