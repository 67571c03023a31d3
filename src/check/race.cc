#include "check/race.hh"

#include <algorithm>

#include "base/logging.hh"

namespace shrimp::check
{

namespace
{

const char *
kindName(ActorKind k)
{
    switch (k) {
      case ActorKind::Cpu:
        return "cpu";
      case ActorKind::Snoop:
        return "snoop";
      case ActorKind::Du:
        return "du";
      case ActorKind::Dma:
        return "dma";
      case ActorKind::Other:
        return "actor";
    }
    return "actor";
}

bool
overlaps(PAddr lo1, PAddr hi1, PAddr lo2, PAddr hi2)
{
    return lo1 < hi2 && lo2 < hi1;
}

/** True iff [lo, hi) holds every byte that [rlo, rhi) has in the word
 *  at @p word_lo (which [rlo, rhi) touches). */
bool
coversInWord(PAddr lo, PAddr hi, PAddr rlo, PAddr rhi, PAddr word_lo)
{
    return lo <= std::max(rlo, word_lo) && std::min(rhi, word_lo + 4) <= hi;
}

} // namespace

RaceDetector &
RaceDetector::instance()
{
    // analyze: allow(shared-mutable-static) — the race detector is
    // deliberately process-wide: happens-before edges span nodes
    static RaceDetector d;
    return d;
}

void
RaceDetector::reset()
{
    byName_.clear();
    names_.clear();
    kinds_.clear();
    clocks_.clear();
    actorStack_.clear();
    mems_.clear();
}

// ---- actors -------------------------------------------------------------

ActorId
RaceDetector::registerActor(const std::string &name, ActorKind kind)
{
    auto it = byName_.find(name);
    if (it != byName_.end())
        return it->second;
    ActorId id = ActorId(names_.size());
    byName_.emplace(name, id);
    names_.push_back(name);
    kinds_.push_back(kind);
    clocks_.emplace_back();
    return id;
}

void
RaceDetector::pushActor(ActorId a)
{
    actorStack_.push_back(a);
}

void
RaceDetector::popActor()
{
    if (actorStack_.empty())
        panic("race-detector actor stack underflow");
    actorStack_.pop_back();
}

ActorId
RaceDetector::currentActor() const
{
    return actorStack_.empty() ? noActor : actorStack_.back();
}

// ---- internals ----------------------------------------------------------

RaceDetector::MemState &
RaceDetector::memState(const void *mem)
{
    return mems_[mem];
}

RaceDetector::PageShadow &
RaceDetector::page(MemState &ms, PageNum p)
{
    return ms.pages[p];
}

void
RaceDetector::pushWrite(WordShadow &w, const Cell &c, PAddr word_lo)
{
    // A record is superseded when the new op covers every byte it
    // described *within this word* and it came from the same writer
    // (the writer's own later store replaces its earlier one; another
    // actor's covered record must stay until the conflict check has a
    // chance to fire against a third party). Replace such a record
    // in place; otherwise shift the history down and evict the oldest.
    const PAddr wordHi = word_lo + 4;
    auto clipLo = [&](const Cell &e) { return std::max(e.opBase, word_lo); };
    auto clipHi = [&](const Cell &e) {
        return std::min(e.opBase + PAddr(e.opLen), wordHi);
    };
    std::size_t slot = writeHistoryDepth - 1;
    for (std::size_t i = 0; i < writeHistoryDepth; ++i) {
        const Cell &e = w.hist[i];
        if (e.writer == noActor ||
            (e.writer == c.writer && clipLo(e) >= clipLo(c) &&
             clipHi(e) <= clipHi(c))) {
            slot = i;
            break;
        }
    }
    for (std::size_t i = slot; i > 0; --i)
        w.hist[i] = w.hist[i - 1];
    w.hist[0] = c;
}

std::vector<std::uint64_t> &
RaceDetector::clockOf(ActorId a)
{
    return clocks_.at(a);
}

std::uint64_t
RaceDetector::entryOf(ActorId a, ActorId other)
{
    const auto &v = clocks_.at(a);
    return other < v.size() ? v[other] : 0;
}

std::uint64_t
RaceDetector::bump(ActorId a)
{
    auto &v = clocks_.at(a);
    if (v.size() <= a)
        v.resize(std::size_t(a) + 1, 0);
    return ++v[a];
}

void
RaceDetector::joinVec(std::vector<std::uint64_t> &dst,
                      const std::vector<std::uint64_t> &src)
{
    if (dst.size() < src.size())
        dst.resize(src.size(), 0);
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
}

std::string
RaceDetector::describe(ActorId a) const
{
    if (a == noActor || a >= names_.size())
        return "an unattributed access";
    return logging::format("%s '%s'", kindName(kinds_[a]),
                           names_[a].c_str());
}

void
RaceDetector::report(const std::string &msg)
{
    SimChecker::instance().report(msg);
}

// ---- memory lifecycle + accesses ----------------------------------------

void
RaceDetector::onMemoryCreated(const void *mem, const std::string &name,
                              std::size_t page_bytes)
{
    MemState &ms = mems_[mem];
    ms = MemState{};
    ms.name = name;
    ms.pageBytes = page_bytes ? page_bytes : 4096;
}

void
RaceDetector::onMemoryDestroyed(const void *mem)
{
    mems_.erase(mem);
}

void
RaceDetector::onWrite(const void *mem, PAddr addr, std::size_t n, Tick now)
{
    if (n == 0)
        return;
    MemState &ms = memState(mem);
    const std::size_t pb = ms.pageBytes;
    const PAddr opLo = addr;
    const PAddr opHi = addr + PAddr(n);
    const PageNum first = PageNum(opLo / pb);
    const PageNum last = PageNum((opHi - 1) / pb);
    const ActorId me = currentActor();

    if (me == noActor) {
        // Backdoor write (test poke / setup outside any scope): it is
        // not checked, and it wipes what it covers — later conflicts
        // against pre-poke accesses would be stale.
        for (PageNum p = first; p <= last; ++p) {
            auto it = ms.pages.find(p);
            if (it == ms.pages.end())
                continue;
            PageShadow &sh = it->second;
            const PAddr pageLo = PAddr(std::size_t(p) * pb);
            const PAddr lo = std::max(opLo, pageLo);
            const PAddr hi = std::min(opHi, PAddr(pageLo + pb));
            for (std::size_t ci = (lo - pageLo) / 4;
                 ci <= (hi - 1 - pageLo) / 4; ++ci) {
                if (ci < sh.cells.size())
                    sh.cells[ci] = WordShadow{};
                if (ci < sh.reads.size())
                    sh.reads[ci].clear();
            }
        }
        return;
    }

    SimChecker::instance().noteCheck();
    const ActorKind kind = kinds_.at(me);
    const std::uint64_t myclk = bump(me);
    std::vector<ActorId> reported; // one report per conflicting actor/op

    for (PageNum p = first; p <= last; ++p) {
        const PAddr pageLo = PAddr(std::size_t(p) * pb);
        const PAddr lo = std::max(opLo, pageLo);
        const PAddr hi = std::min(opHi, PAddr(pageLo + pb));

        // Ownership: a CPU store to an AU-bound write-back page would sit
        // in the cache where the snoop logic can never see it.
        PageOwn &own = ms.own[p];
        if (kind == ActorKind::Cpu && own.auBound &&
            own.mode == CacheMode::WriteBack) {
            report(logging::format(
                "race: %s stored [0x%x, +%zu) to %s page %u at %llu ns "
                "while the page is AU-bound with write-back caching (the "
                "snoop logic cannot observe cached stores)",
                describe(me).c_str(), unsigned(addr), n, ms.name.c_str(),
                unsigned(p), (unsigned long long)now));
        }
        if (kind == ActorKind::Cpu && own.mode == CacheMode::WriteBack)
            own.dirtyWb = true;
        if (kind == ActorKind::Dma) {
            auto c = std::make_shared<RaceClock>();
            c->vc = clockOf(me);
            own.deliveryClock = std::move(c);
        }

        PageShadow &sh = page(ms, p);
        const std::size_t words = (pb + 3) / 4;
        if (sh.cells.size() < words)
            sh.cells.resize(words);
        for (std::size_t ci = (lo - pageLo) / 4;
             ci <= (hi - 1 - pageLo) / 4; ++ci) {
            const PAddr wordLo = pageLo + PAddr(ci * 4);
            // Write-after-read: an unordered reader may still be
            // mid-copy. The write supersedes the reads it covers here.
            if (!sh.reads.empty()) {
                std::vector<ReadRec> &rs = sh.reads[ci];
                for (const ReadRec &r : rs) {
                    if (r.reader != me && overlaps(r.lo, r.hi, opLo, opHi) &&
                        entryOf(me, r.reader) < r.clk &&
                        std::find(reported.begin(), reported.end(),
                                  r.reader) == reported.end()) {
                        reported.push_back(r.reader);
                        report(logging::format(
                            "race: write-read conflict on %s page %u: %s "
                            "wrote [0x%x, +%zu) at %llu ns, unordered with "
                            "the read [0x%x, +%u) by %s at %llu ns "
                            "(missing ordering edge: the writer never "
                            "synchronized with the reader before reusing "
                            "the buffer)",
                            ms.name.c_str(), unsigned(p),
                            describe(me).c_str(), unsigned(addr), n,
                            (unsigned long long)now, unsigned(r.lo),
                            unsigned(r.hi - r.lo), describe(r.reader).c_str(),
                            (unsigned long long)r.tick));
                    }
                }
                std::erase_if(rs, [&](const ReadRec &r) {
                    return coversInWord(lo, hi, r.lo, r.hi, wordLo);
                });
            }

            // Write-after-write against the word's whole write history
            // — a partial-word write must not hide the record of an
            // earlier write to the word's other bytes.
            WordShadow &w = sh.cells[ci];
            // Word cells are a coarse index; the stored op range makes
            // the check byte-precise so ops that merely share a word
            // (false sharing at the boundary) never conflict.
            for (const Cell &c : w.hist) {
                if (c.writer != noActor && c.writer != me &&
                    overlaps(c.opBase, c.opBase + PAddr(c.opLen), opLo,
                             opHi) &&
                    entryOf(me, c.writer) < c.clk &&
                    std::find(reported.begin(), reported.end(),
                              c.writer) == reported.end()) {
                    reported.push_back(c.writer);
                    report(logging::format(
                        "race: write-write conflict on %s page %u: %s "
                        "wrote [0x%x, +%zu) at %llu ns, unordered with "
                        "the write [0x%x, +%u) by %s at %llu ns (no "
                        "happens-before edge between the two accesses)",
                        ms.name.c_str(), unsigned(p), describe(me).c_str(),
                        unsigned(addr), n, (unsigned long long)now,
                        unsigned(c.opBase), c.opLen,
                        describe(c.writer).c_str(),
                        (unsigned long long)c.tick));
                }
            }
            pushWrite(w, Cell{me, myclk, now, addr, std::uint32_t(n)},
                      wordLo);
        }
    }
}

void
RaceDetector::onRead(const void *mem, PAddr addr, std::size_t n, Tick now)
{
    if (n == 0)
        return;
    const ActorId me = currentActor();
    if (me == noActor)
        return; // backdoor read: ignored
    MemState &ms = memState(mem);
    const std::size_t pb = ms.pageBytes;
    const PAddr opLo = addr;
    const PAddr opHi = addr + PAddr(n);
    const PageNum first = PageNum(opLo / pb);
    const PageNum last = PageNum((opHi - 1) / pb);

    if (n <= atomicReadMax) {
        // Bus-burst-atomic read: cannot tear, so it is exempt from race
        // checks. Instead it is an observation edge — the reader is now
        // ordered after whatever wrote the observed words (this is how a
        // flag poll orders a CPU after the delivering DMA).
        for (PageNum p = first; p <= last; ++p) {
            auto it = ms.pages.find(p);
            if (it == ms.pages.end())
                continue;
            PageShadow &sh = it->second;
            if (sh.cells.empty())
                continue;
            const PAddr pageLo = PAddr(std::size_t(p) * pb);
            const PAddr lo = std::max(opLo, pageLo);
            const PAddr hi = std::min(opHi, PAddr(pageLo + pb));
            for (std::size_t ci = (lo - pageLo) / 4;
                 ci <= (hi - 1 - pageLo) / 4 && ci < sh.cells.size();
                 ++ci) {
                // The read observes the word's current content, which
                // may hold bytes from several recorded writes: join
                // with every overlapping writer in the history.
                for (const Cell &c : sh.cells[ci].hist) {
                    if (c.writer != noActor && c.writer != me &&
                        overlaps(c.opBase, c.opBase + PAddr(c.opLen),
                                 opLo, opHi))
                        joinVec(clockOf(me), clocks_.at(c.writer));
                }
            }
        }
        return;
    }

    SimChecker::instance().noteCheck();
    const std::uint64_t myclk = bump(me);
    std::vector<ActorId> reported;

    for (PageNum p = first; p <= last; ++p) {
        const PAddr pageLo = PAddr(std::size_t(p) * pb);
        const PAddr lo = std::max(opLo, pageLo);
        const PAddr hi = std::min(opHi, PAddr(pageLo + pb));
        PageShadow &sh = page(ms, p);
        const std::size_t words = (pb + 3) / 4;
        if (sh.reads.size() < words)
            sh.reads.resize(words);
        for (std::size_t ci = (lo - pageLo) / 4;
             ci <= (hi - 1 - pageLo) / 4; ++ci) {
            // Read-after-write, against the word's whole write history.
            if (ci < sh.cells.size()) {
                for (const Cell &c : sh.cells[ci].hist) {
                    if (c.writer != noActor && c.writer != me &&
                        overlaps(c.opBase, c.opBase + PAddr(c.opLen),
                                 opLo, opHi) &&
                        entryOf(me, c.writer) < c.clk &&
                        std::find(reported.begin(), reported.end(),
                                  c.writer) == reported.end()) {
                        reported.push_back(c.writer);
                        report(logging::format(
                            "race: read-write conflict on %s page %u: "
                            "%s read [0x%x, +%zu) at %llu ns, unordered "
                            "with the write [0x%x, +%u) by %s at %llu "
                            "ns (missing ordering edge: no flag-poll "
                            "observation, packet/notification clock or "
                            "bus completion orders the read after the "
                            "write)",
                            ms.name.c_str(), unsigned(p),
                            describe(me).c_str(), unsigned(addr), n,
                            (unsigned long long)now, unsigned(c.opBase),
                            c.opLen, describe(c.writer).c_str(),
                            (unsigned long long)c.tick));
                    }
                }
            }

            // Record so a later unordered write trips write-after-read.
            // An older record this read covers in the word and is
            // ordered after can go: a write that races it races this
            // read too.
            const PAddr wordLo = pageLo + PAddr(ci * 4);
            std::vector<ReadRec> &rs = sh.reads[ci];
            std::erase_if(rs, [&](const ReadRec &r) {
                return coversInWord(lo, hi, r.lo, r.hi, wordLo) &&
                       entryOf(me, r.reader) >= r.clk;
            });
            rs.push_back(ReadRec{me, myclk, now, lo, hi});
        }
    }
}

// ---- synchronization edges ----------------------------------------------

void
RaceDetector::handoff(ActorId a, ActorId b)
{
    if (a == noActor || b == noActor || a == b)
        return;
    joinVec(clockOf(a), clockOf(b));
    clockOf(b) = clockOf(a);
    bump(a);
    bump(b);
}

RaceClockRef
RaceDetector::snapshot(ActorId a)
{
    if (a == noActor)
        return nullptr;
    bump(a);
    auto c = std::make_shared<RaceClock>();
    c->vc = clockOf(a);
    return c;
}

void
RaceDetector::join(ActorId a, const RaceClockRef &c)
{
    if (a == noActor || !c)
        return;
    joinVec(clockOf(a), c->vc);
}

void
RaceDetector::fenceAll()
{
    std::vector<std::uint64_t> all;
    for (const auto &c : clocks_)
        joinVec(all, c);
    for (auto &c : clocks_)
        c = all;
}

// ---- page ownership ------------------------------------------------------

void
RaceDetector::onCacheMode(const void *mem, PAddr page_addr, CacheMode mode,
                          Tick now)
{
    MemState &ms = memState(mem);
    PageOwn &own = ms.own[PageNum(page_addr / ms.pageBytes)];
    SimChecker::instance().noteCheck();
    if (own.auBound && mode == CacheMode::WriteBack) {
        report(logging::format(
            "race: %s page %u switched to write-back caching at %llu ns "
            "while AU-bound (snooped stores would hide in the cache)",
            ms.name.c_str(), unsigned(page_addr / ms.pageBytes),
            (unsigned long long)now));
    }
    own.mode = mode;
    own.dirtyWb = false; // a mode switch models the flush/invalidate
}

void
RaceDetector::onAuBind(const void *mem, PAddr page_addr, Tick now)
{
    MemState &ms = memState(mem);
    PageOwn &own = ms.own[PageNum(page_addr / ms.pageBytes)];
    SimChecker::instance().noteCheck();
    if (own.mode == CacheMode::WriteBack && own.dirtyWb) {
        report(logging::format(
            "race: %s page %u was AU-bound at %llu ns while write-back "
            "cached with dirty CPU stores (exported through the OPT "
            "without a flush edge)",
            ms.name.c_str(), unsigned(page_addr / ms.pageBytes),
            (unsigned long long)now));
    }
    own.auBound = true;
}

void
RaceDetector::onAuUnbind(const void *mem, PAddr page_addr)
{
    MemState &ms = memState(mem);
    ms.own[PageNum(page_addr / ms.pageBytes)].auBound = false;
}

void
RaceDetector::onIptEnable(const void *mem, PAddr page_addr,
                          ActorId exporter, Tick now)
{
    MemState &ms = memState(mem);
    PageOwn &own = ms.own[PageNum(page_addr / ms.pageBytes)];
    SimChecker::instance().noteCheck();
    if (own.exportDepth > 0) {
        report(logging::format(
            "race: overlapping IPT export windows on %s page %u: a window "
            "opened at %llu ns while one is already open",
            ms.name.c_str(), unsigned(page_addr / ms.pageBytes),
            (unsigned long long)now));
    }
    own.exportDepth += 1;
    own.exportClock = snapshot(exporter);
}

void
RaceDetector::onIptDisable(const void *mem, PAddr page_addr, ActorId actor,
                           Tick now)
{
    MemState &ms = memState(mem);
    PageOwn &own = ms.own[PageNum(page_addr / ms.pageBytes)];
    SimChecker::instance().noteCheck();
    if (own.exportDepth == 0) {
        report(logging::format(
            "race: IPT export window closed on %s page %u at %llu ns but "
            "no window is open",
            ms.name.c_str(), unsigned(page_addr / ms.pageBytes),
            (unsigned long long)now));
        return;
    }
    own.exportDepth -= 1;
    // Drain edge: closing the window waited for in-flight deliveries, so
    // the closer is ordered after the last DMA into the page (the
    // exporter may now safely reuse the buffer).
    if (actor != noActor && own.deliveryClock)
        joinVec(clockOf(actor), own.deliveryClock->vc);
    if (own.exportDepth == 0)
        own.exportClock.reset();
}

void
RaceDetector::joinWindow(const void *mem, PAddr addr, std::size_t n,
                         ActorId engine)
{
    if (engine == noActor || n == 0)
        return;
    MemState &ms = memState(mem);
    const std::size_t pb = ms.pageBytes;
    const PageNum first = PageNum(addr / pb);
    const PageNum last = PageNum((addr + PAddr(n) - 1) / pb);
    for (PageNum p = first; p <= last; ++p) {
        auto it = ms.own.find(p);
        if (it != ms.own.end() && it->second.exportClock)
            joinVec(clockOf(engine), it->second.exportClock->vc);
    }
}

} // namespace shrimp::check
