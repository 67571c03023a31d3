/**
 * @file
 * RaceDetector: a vector-clock happens-before detector over simulated
 * physical memory, plus per-page ownership-state tracking mirroring the
 * paper's cache modes.
 *
 * The SHRIMP libraries run entirely at user level: the CPU, the
 * packetizer's snoop path, the deliberate-update engine's DMA reads and
 * the incoming DMA engine's writes all touch the same physical pages
 * with no kernel mediation. A missing ordering edge between any two of
 * them silently corrupts data — and therefore the reproduced figures.
 * The detector makes such conflicts loud.
 *
 * Model:
 *
 *  - Every memory-touching component registers an *actor* (deduplicated
 *    by name). An access is attributed to the actor on top of the
 *    current-actor stack (ActorScope / SHRIMP_RACE_SCOPE); accesses made
 *    with no actor in scope are *backdoor* accesses (raw test pokes):
 *    a backdoor write clears the tracked state for its range, a backdoor
 *    read is ignored. Scopes must never span a co_await — they bracket
 *    synchronous regions only.
 *
 *  - Each actor carries a vector clock. Shadow state is kept per
 *    4-byte word (the EISA bus transfer granularity): a short history
 *    of the writes that touched the word, each with its writer's clock
 *    and op range, and the word's *read set* — the reads of more than
 *    atomicReadMax bytes that touched it, as in FastTrack (Flanagan and
 *    Freund, PLDI 2009). A read drops the records whose bytes in the
 *    word it covers and is ordered after: any write that races such a
 *    record races the newer read too. A write drops the records it
 *    covers, after checking them. So a word holds only reads that are
 *    unordered with each other or read different bytes of it: the set
 *    is bounded by the number of actors, not by how often the word is
 *    read.
 *
 *  - Reads of at most atomicReadMax (16) bytes are *bus-burst atomic*:
 *    polling a flag, a ring control word or an NX descriptor can never
 *    observe a torn value in the simulator, exactly as a locked bus
 *    burst cannot on hardware. Such reads are exempt from race checks
 *    and instead create an *observation edge*: the reader joins the
 *    current clock of each overlapped word's last writer. This is the
 *    canonical receive-side ordering — a CPU poll that observes the
 *    receive-flag write is thereby ordered after the DMA that made it
 *    (and after everything that DMA did before).
 *
 *  - Explicit edges mirror the real synchronization mechanisms:
 *    handoff() for CPU<->snoop (every snooped store) and CPU<->DU
 *    engine (transfer initiation PIO and blocking bus completion);
 *    packet clocks (snapshot() stamped at packet formation, join()ed by
 *    the incoming engine before the delivery DMA); the IPT
 *    export-window clock (the exporter's clock at registerExport,
 *    joined at every delivery into the window — the import handshake
 *    orders deliveries after the exporter's buffer setup); and
 *    notification delivery (handoff DMA->receiving process). The
 *    sim/sync.hh wakeups carry no edge: a woken poll loop is ordered by
 *    the observation rule above, which is more precise than the
 *    any-write watchpoint wakeup.
 *
 *  - fenceAll() is called when the simulator's event queue drains:
 *    every pending operation has completed, so all actors synchronize.
 *    This legitimizes post-run inspection and between-phase reuse.
 *
 *  - Ownership state per page tracks the cache mode (write-through /
 *    write-back / uncached), whether the page is AU-bound through the
 *    OPT, whether a write-back page holds dirty CPU stores, and the
 *    IPT export-window depth. Transitions the real hardware could not
 *    make safe are violations: a CPU store to an AU-bound write-back
 *    page (the snoop logic cannot see cached stores), AU-binding a
 *    dirty write-back page without a flush edge, overlapping IPT
 *    export windows, and disabling a window that is not open.
 *
 * Violations are reported through SimChecker (same panic/log format,
 * same abort/collect modes). Like SimChecker, the detector is always
 * compiled; call sites cost nothing unless SHRIMP_CHECK is defined.
 */

#ifndef SHRIMP_CHECK_RACE_HH
#define SHRIMP_CHECK_RACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/config.hh"
#include "base/types.hh"
#include "check/check.hh"

namespace shrimp::check
{

using ActorId = std::uint32_t;
inline constexpr ActorId noActor = 0xffffffffu;

/** What kind of hardware agent an actor models (used in reports and in
 *  the ownership checks, which only constrain CPU stores). */
enum class ActorKind : std::uint8_t
{
    Cpu,   //!< a user process running on the node CPU
    Snoop, //!< the packetizer's snoop/combining path
    Du,    //!< the deliberate-update engine's DMA reads
    Dma,   //!< the incoming DMA engine's delivery writes
    Other,
};

/** Immutable vector-clock snapshot (stamped onto packets, stored per
 *  export window and per delivered page). */
struct RaceClock
{
    std::vector<std::uint64_t> vc;
};

using RaceClockRef = std::shared_ptr<const RaceClock>;

/** Reads up to this many bytes are bus-burst atomic: exempt from race
 *  checks and joined to the writer's clock (observation edge). Covers
 *  flag words, ring control words and 16-byte NX descriptors. */
inline constexpr std::size_t atomicReadMax = 16;

class RaceDetector
{
  public:
    static RaceDetector &instance();

    /** Forget all actors, shadow memory, ownership state and clocks.
     *  SimChecker::reset() calls this too. */
    void reset();

    // ---- actors -------------------------------------------------------

    /** Register (or look up) the actor named @p name. Names are
     *  deduplicated so components recreated across simulations share an
     *  id; stale clocks only add ordering, never remove it. */
    ActorId registerActor(const std::string &name, ActorKind kind);

    /** Current-actor stack; accesses attribute to the top. */
    void pushActor(ActorId a);
    void popActor();
    ActorId currentActor() const;

    // ---- memory lifecycle + accesses ----------------------------------

    void onMemoryCreated(const void *mem, const std::string &name,
                         std::size_t page_bytes);
    void onMemoryDestroyed(const void *mem);

    /** An attributed (or backdoor, if no actor is in scope) write of
     *  @p n bytes at @p addr landed at tick @p now. */
    void onWrite(const void *mem, PAddr addr, std::size_t n, Tick now);

    /** A read; atomic (<= atomicReadMax bytes) reads join, larger reads
     *  are checked against unordered writes and recorded per word. */
    void onRead(const void *mem, PAddr addr, std::size_t n, Tick now);

    // ---- synchronization edges ----------------------------------------

    /** Two-way synchronization between @p a and @p b (PIO initiation,
     *  blocking completion, per-store snoop handoff, notification). */
    void handoff(ActorId a, ActorId b);

    /** Advance @p a's clock and return an immutable copy (stamped onto
     *  a packet at formation). */
    RaceClockRef snapshot(ActorId a);

    /** @p a absorbs @p c (packet clock joined before the delivery DMA). */
    void join(ActorId a, const RaceClockRef &c);

    /** The event queue drained: every in-flight operation has completed,
     *  so all actors synchronize with each other. */
    void fenceAll();

    // ---- page ownership -----------------------------------------------

    /** The page at physical address @p page_addr changed cache mode.
     *  A mode switch models a flush/invalidate, clearing dirtiness;
     *  switching an AU-bound page to write-back is a violation. */
    void onCacheMode(const void *mem, PAddr page_addr, CacheMode mode,
                     Tick now);

    /** The page was bound for automatic update through the OPT. Binding
     *  a write-back page that holds dirty CPU stores (no flush edge) is
     *  a violation. */
    void onAuBind(const void *mem, PAddr page_addr, Tick now);
    void onAuUnbind(const void *mem, PAddr page_addr);

    /** The IPT opened an export window on the page; @p exporter's clock
     *  is captured as the window-establishment clock. Opening a window
     *  on an already-exported page is a violation (overlapping
     *  import/export windows). */
    void onIptEnable(const void *mem, PAddr page_addr, ActorId exporter,
                     Tick now);

    /** The IPT closed the window (after draining in-flight packets);
     *  @p actor absorbs the page's last-delivery clock — the drain
     *  edge that lets the exporter safely reuse the buffer. Closing a
     *  window that is not open is a violation. */
    void onIptDisable(const void *mem, PAddr page_addr, ActorId actor,
                      Tick now);

    /** The incoming engine (@p engine) is delivering into
     *  [@p addr, +@p n): absorb the establishment clock of every
     *  export window the range overlaps. */
    void joinWindow(const void *mem, PAddr addr, std::size_t n,
                    ActorId engine);

    std::size_t numActors() const { return names_.size(); }

  private:
    RaceDetector() = default;

    struct Cell
    {
        ActorId writer = noActor;
        std::uint64_t clk = 0;
        Tick tick = 0;
        PAddr opBase = 0;     //!< base of the write op that set this cell
        std::uint32_t opLen = 0;
    };

    /** Retained write records per 4-byte word. One record
     *  (last-writer-wins) had a false negative: a write touching only
     *  *part* of a word evicted the record of an earlier write to the
     *  word's other bytes, hiding a later conflict with that earlier
     *  write. A short history keeps the evicted records around; depth 3
     *  covers every byte-disjoint split of a 4-byte word by distinct
     *  ops plus one spare. */
    static constexpr std::size_t writeHistoryDepth = 3;

    /** Per-word shadow state: up to writeHistoryDepth write records,
     *  newest first; unused slots have writer == noActor. */
    struct WordShadow
    {
        std::array<Cell, writeHistoryDepth> hist;
    };

    /** A large read of [lo, hi) (its part of the page), kept in the
     *  read set of each word it touches. Never merged across words or
     *  reads: merging adjacent reads under one (max) clock would make a
     *  properly acknowledged ring slot look like it was read after the
     *  ack. */
    struct ReadRec
    {
        ActorId reader = noActor;
        std::uint64_t clk = 0;
        Tick tick = 0;
        PAddr lo = 0;
        PAddr hi = 0;
    };

    struct PageShadow
    {
        std::vector<WordShadow> cells; //!< one per word, lazily sized
        //! One read set per word, sized on the page's first large read
        //! (most pages never take one).
        std::vector<std::vector<ReadRec>> reads;
    };

    struct PageOwn
    {
        CacheMode mode = CacheMode::WriteBack;
        bool auBound = false;
        bool dirtyWb = false;     //!< write-back page holds CPU stores
        int exportDepth = 0;      //!< open IPT export windows
        RaceClockRef exportClock; //!< exporter's clock at window open
        RaceClockRef deliveryClock; //!< last DMA delivery into the page
    };

    struct MemState
    {
        std::string name = "mem";
        std::size_t pageBytes = 4096;
        std::unordered_map<PageNum, PageShadow> pages;
        std::unordered_map<PageNum, PageOwn> own;
    };

    MemState &memState(const void *mem);
    PageShadow &page(MemState &ms, PageNum p);
    void pushWrite(WordShadow &w, const Cell &c, PAddr word_lo);
    std::vector<std::uint64_t> &clockOf(ActorId a);
    std::uint64_t entryOf(ActorId a, ActorId other);
    std::uint64_t bump(ActorId a);
    void joinVec(std::vector<std::uint64_t> &dst,
                 const std::vector<std::uint64_t> &src);
    std::string describe(ActorId a) const;
    void report(const std::string &msg);

    std::unordered_map<std::string, ActorId> byName_;
    std::vector<std::string> names_;
    std::vector<ActorKind> kinds_;
    std::vector<std::vector<std::uint64_t>> clocks_;
    std::vector<ActorId> actorStack_;
    std::unordered_map<const void *, MemState> mems_;
};

/**
 * RAII attribution scope: accesses between construction and destruction
 * are attributed to @p actor. Never hold one across a co_await — the
 * stack is global, and an interleaved task would inherit the actor.
 */
class ActorScope
{
  public:
    explicit ActorScope(ActorId actor)
        : pushed_(on() && actor != noActor)
    {
        if (pushed_)
            RaceDetector::instance().pushActor(actor);
    }

    ~ActorScope()
    {
        if (pushed_)
            RaceDetector::instance().popActor();
    }

    ActorScope(const ActorScope &) = delete;
    ActorScope &operator=(const ActorScope &) = delete;

  private:
    bool pushed_;
};

} // namespace shrimp::check

/**
 * Attribution scope call-site macro: declares an ActorScope when
 * SHRIMP_CHECK is on, nothing otherwise (the actor expression is not
 * evaluated). Must bracket a synchronous region — no co_await.
 */
#ifdef SHRIMP_CHECK
#define SHRIMP_RACE_SCOPE_CAT2(a, b) a##b
#define SHRIMP_RACE_SCOPE_CAT(a, b) SHRIMP_RACE_SCOPE_CAT2(a, b)
#define SHRIMP_RACE_SCOPE(actor)                                             \
    ::shrimp::check::ActorScope SHRIMP_RACE_SCOPE_CAT(                       \
        shrimp_race_scope_, __COUNTER__)(actor)
#else
#define SHRIMP_RACE_SCOPE(actor)                                             \
    do {                                                                     \
    } while (0)
#endif

#endif // SHRIMP_CHECK_RACE_HH
