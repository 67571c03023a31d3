#include "vmmc/daemon.hh"

#include "base/logging.hh"
#include "check/check.hh"
#include "check/race.hh"
#include "vmmc/vmmc.hh"

namespace shrimp::vmmc
{

namespace
{

/** The kind that answers a request of kind @p k. */
DaemonMsg::Kind
answerKind(DaemonMsg::Kind k)
{
    using Kind = DaemonMsg::Kind;
    switch (k) {
      case Kind::ImportReq:
        return Kind::ImportReply;
      case Kind::UnimportReq:
        return Kind::UnimportAck;
      default:
        return Kind::RevokeAck;
    }
}

} // namespace

Daemon::Daemon(node::Node &node, node::EtherNet &ether)
    : node_(node), ether_(ether), registry_(node.config().pageBytes),
      stats_("node" + std::to_string(node.id()) + ".daemon"),
      track_(trace::track(stats_.name()))
{
}

void
Daemon::start()
{
    if (started_)
        panic("daemon started twice");
    started_ = true;
    node_.sim().spawnDaemon(serviceLoop());
    node_.nic().incoming().setNotifyHandler(
        [this](const net::Packet &pkt) { onNotification(pkt); });
    node_.nic().incoming().setBadPacketHandler(
        [this](const net::Packet &pkt, PageNum page) {
            onBadPacket(pkt, page);
        });
}

sim::Task<>
Daemon::serviceLoop()
{
    auto &rx = ether_.rxQueue(id(), node::EtherNet::daemonPort);
    for (;;) {
        node::EtherFrame frame = co_await rx.recv();
        const std::optional<DaemonMsg> m =
            node::EtherNet::decode<DaemonMsg>(frame);
        using Kind = DaemonMsg::Kind;
        if (!m || (m->kind != Kind::ImportReq &&
                   m->kind != Kind::UnimportReq &&
                   m->kind != Kind::RevokeReq)) {
            warn(logging::format("node %u daemon: dropped a malformed "
                                 "request (%zu bytes) from node %d",
                                 unsigned(id()), frame.data.size(),
                                 int(frame.src)));
            continue;
        }
        if (m->srcNode != frame.src) {
            // The frame says which node sent it; the handlers act for
            // that node, and a request that names another is refused.
            warn(logging::format("node %u daemon: refused a request from "
                                 "node %d that names node %d",
                                 unsigned(id()), int(frame.src),
                                 int(m->srcNode)));
            DaemonMsg resp;
            resp.kind = answerKind(m->kind);
            resp.status = Status::PermissionDenied;
            reply(frame, *m, resp);
            continue;
        }
        if (m->kind == Kind::ImportReq)
            node_.sim().spawn(handleImportReq(std::move(frame), *m));
        else if (m->kind == Kind::UnimportReq)
            node_.sim().spawn(handleUnimportReq(std::move(frame), *m));
        else
            node_.sim().spawn(handleRevokeReq(std::move(frame), *m));
    }
}

sim::Task<DaemonMsg>
Daemon::request(NodeId remote, DaemonMsg m)
{
    m.reqId = nextReq_++;
    const std::optional<DaemonMsg> r = co_await ether_.request<DaemonMsg>(
        id(), remote, node::EtherNet::daemonPort, m);
    if (r && r->reqId == m.reqId)
        co_return *r;
    DaemonMsg bad;
    bad.status = Status::BadReply;
    co_return bad;
}

void
Daemon::reply(const node::EtherFrame &req, const DaemonMsg &m,
              DaemonMsg resp)
{
    resp.reqId = m.reqId;
    resp.srcNode = id();
    ether_.reply(req, resp);
}

sim::Task<>
Daemon::drainPages(PAddr paddr, std::size_t len)
{
    const MachineConfig &cfg = node_.config();
    // Give packets that are in an outgoing FIFO somewhere (but not yet
    // injected and tracked) time to enter the mesh.
    co_await sim::Delay{node_.sim().queue(),
                        cfg.auCombineTimeout + 4 * cfg.nicForwardCost +
                            4 * cfg.snoopPacketizeCost};
    PageNum first = paddr / cfg.pageBytes;
    PageNum last = PageNum((std::uint64_t(paddr) + (len ? len : 1) - 1) /
                           cfg.pageBytes);
    co_await node_.nic().incoming().waitDrain(first, last);
}

// ---- local entry points ---------------------------------------------

sim::Task<Status>
Daemon::registerExport(ExportRecord rec)
{
    const MachineConfig &cfg = node_.config();
    trace::ScopedSpan span(node_.sim(), track_, "registerExport");
    statExportsRegistered_.get() += 1;
    co_await node_.cpu().use(cfg.libCallCost);
    if (rec.paddr % cfg.pageBytes != 0 || rec.len % cfg.pageBytes != 0 ||
        rec.len == 0) {
        co_return Status::Misaligned;
    }
    bool has_handler = static_cast<bool>(rec.handler);
    PAddr paddr = rec.paddr;
    std::size_t len = rec.len;
    [[maybe_unused]] Endpoint *owner = rec.owner;
    if (!registry_.add(std::move(rec)))
        co_return Status::AlreadyExported;
    auto &ipt = node_.nic().ipt();
    for (PageNum p = paddr / cfg.pageBytes;
         p <= (paddr + len - 1) / cfg.pageBytes; ++p) {
        ipt.setEnabled(p, true);
        if (has_handler)
            ipt.setInterrupt(p, true);
        // Export-window clock: the exporter finished preparing the
        // buffer before the window opened; deliveries join this.
        SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onIptEnable(
            &node_.memory(), PAddr(p * cfg.pageBytes),
            owner ? owner->proc().raceActor() : check::noActor,
            node_.sim().now()));
    }
    co_return Status::Ok;
}

sim::Task<Status>
Daemon::unexport(std::uint32_t key, int pid)
{
    const MachineConfig &cfg = node_.config();
    trace::ScopedSpan span(node_.sim(), track_, "unexport");
    statUnexports_.get() += 1;
    co_await node_.cpu().use(cfg.libCallCost);
    ExportRecord *rec = registry_.find(key);
    if (!rec || rec->pid != pid)
        co_return Status::BadHandle;
    rec->accepting = false;

    // Revoke every importer's mapping (with acknowledgement) so no new
    // data can be sent, then wait for in-flight messages to drain.
    std::vector<ImporterRecord> importers = rec->importers;
    for (const ImporterRecord &imp : importers) {
        DaemonMsg m;
        m.kind = DaemonMsg::Kind::RevokeReq;
        m.key = key;
        m.srcNode = id();
        m.srcPid = pid;
        co_await request(imp.node, m);
    }
    co_await drainPages(rec->paddr, rec->len);

    auto &ipt = node_.nic().ipt();
    for (PageNum p = rec->paddr / cfg.pageBytes;
         p <= (rec->paddr + rec->len - 1) / cfg.pageBytes; ++p) {
        ipt.setEnabled(p, false);
        ipt.setInterrupt(p, false);
        // Drain edge: the window closed only after in-flight packets
        // drained, so the exporter is ordered after the last delivery
        // and may reuse the buffer.
        SHRIMP_CHECK_HOOK(check::RaceDetector::instance().onIptDisable(
            &node_.memory(), PAddr(p * cfg.pageBytes),
            rec->owner ? rec->owner->proc().raceActor() : check::noActor,
            node_.sim().now()));
    }
    registry_.remove(key);
    co_return Status::Ok;
}

sim::Task<Daemon::ImportOutcome>
Daemon::importRemote(NodeId remote, std::uint32_t key, int pid,
                     Endpoint *owner)
{
    const MachineConfig &cfg = node_.config();
    trace::ScopedSpan span(node_.sim(), track_, "importRemote");
    statImportsRequested_.get() += 1;
    co_await node_.cpu().use(cfg.libCallCost);
    DaemonMsg m;
    m.kind = DaemonMsg::Kind::ImportReq;
    m.key = key;
    m.srcNode = id();
    m.srcPid = pid;
    DaemonMsg r = co_await request(remote, m);
    if (r.status != Status::Ok)
        co_return ImportOutcome{r.status, 0, 0, 0};

    nic::OptEntry e;
    e.valid = true;
    e.destNode = remote;
    e.destBase = r.base;
    e.len = r.len;
    std::uint32_t slot = node_.nic().opt().allocSlot(e);
    imports_[{remote, key}].push_back(ImportEntry{slot, owner});
    co_return ImportOutcome{Status::Ok, slot, r.base, r.len};
}

sim::Task<Status>
Daemon::unimport(NodeId remote, std::uint32_t key, std::uint32_t slot,
                 int pid)
{
    const MachineConfig &cfg = node_.config();
    trace::ScopedSpan span(node_.sim(), track_, "unimport");
    statUnimports_.get() += 1;
    co_await node_.cpu().use(cfg.libCallCost);
    auto it = imports_.find({remote, key});
    if (it == imports_.end())
        co_return Status::BadHandle;
    auto &entries = it->second;
    auto eit = std::find_if(entries.begin(), entries.end(),
                            [slot](const ImportEntry &e) {
                                return e.slot == slot;
                            });
    if (eit == entries.end())
        co_return Status::BadHandle;

    // No new data may enter the mapping: flush anything combined, then
    // drop the OPT slot.
    node_.nic().packetizer().flushPending();
    node_.nic().opt().freeSlot(slot);
    entries.erase(eit);
    if (entries.empty())
        imports_.erase(it);

    // Ask the exporter to wait until pending messages are delivered.
    DaemonMsg m;
    m.kind = DaemonMsg::Kind::UnimportReq;
    m.key = key;
    m.srcNode = id();
    m.srcPid = pid;
    DaemonMsg r = co_await request(remote, m);
    co_return r.status;
}

Status
Daemon::setExportInterrupts(std::uint32_t key, int pid, bool enabled)
{
    ExportRecord *rec = registry_.find(key);
    if (!rec || rec->pid != pid)
        return Status::BadHandle;
    const MachineConfig &cfg = node_.config();
    auto &ipt = node_.nic().ipt();
    for (PageNum p = rec->paddr / cfg.pageBytes;
         p <= (rec->paddr + rec->len - 1) / cfg.pageBytes; ++p) {
        ipt.setInterrupt(p, enabled);
    }
    return Status::Ok;
}

// ---- remote request handlers ----------------------------------------

sim::Task<>
Daemon::handleImportReq(node::EtherFrame req, DaemonMsg m)
{
    co_await node_.cpu().use(node_.config().libCallCost);
    DaemonMsg resp;
    resp.kind = DaemonMsg::Kind::ImportReply;
    ExportRecord *rec = registry_.find(m.key);
    if (!rec || !rec->accepting) {
        resp.status = Status::NoSuchExport;
    } else if (!rec->perm.allows(req.src, int(m.srcPid))) {
        resp.status = Status::PermissionDenied;
    } else {
        rec->importers.push_back(ImporterRecord{req.src, int(m.srcPid), 0});
        resp.status = Status::Ok;
        resp.base = rec->paddr;
        resp.len = std::uint32_t(rec->len);
    }
    reply(req, m, resp);
}

sim::Task<>
Daemon::handleUnimportReq(node::EtherFrame req, DaemonMsg m)
{
    co_await node_.cpu().use(node_.config().libCallCost);
    DaemonMsg resp;
    resp.kind = DaemonMsg::Kind::UnimportAck;
    ExportRecord *rec = registry_.find(m.key);
    if (rec) {
        // Drop one matching importer record.
        auto &imps = rec->importers;
        auto it = std::find_if(imps.begin(), imps.end(),
                               [&req, &m](const ImporterRecord &ir) {
                                   return ir.node == req.src &&
                                          ir.pid == int(m.srcPid);
                               });
        if (it != imps.end())
            imps.erase(it);
        co_await drainPages(rec->paddr, rec->len);
    }
    resp.status = Status::Ok;
    reply(req, m, resp);
}

sim::Task<>
Daemon::handleRevokeReq(node::EtherFrame req, DaemonMsg m)
{
    co_await node_.cpu().use(node_.config().libCallCost);
    auto it = imports_.find({req.src, m.key});
    if (it != imports_.end()) {
        node_.nic().packetizer().flushPending();
        for (const ImportEntry &e : it->second) {
            if (e.owner)
                e.owner->noteImportRevoked(e.slot);
            node_.nic().opt().freeSlot(e.slot);
        }
        imports_.erase(it);
    }
    DaemonMsg resp;
    resp.kind = DaemonMsg::Kind::RevokeAck;
    resp.status = Status::Ok;
    reply(req, m, resp);
}

// ---- NIC interrupt service ------------------------------------------

void
Daemon::onNotification(const net::Packet &pkt)
{
    ExportRecord *rec = registry_.findByPAddr(pkt.destAddr);
    if (!rec || !rec->owner) {
        warn("notification for unregistered page dropped");
        return;
    }
    Notification n;
    n.exportKey = rec->key;
    n.offset = std::size_t(pkt.destAddr - rec->paddr);
    rec->owner->deliverNotification(n, rec->handler);
}

void
Daemon::onBadPacket(const net::Packet &pkt, PageNum page)
{
    node_.sim().spawn(freezeService(pkt, page));
}

sim::Task<>
Daemon::freezeService(net::Packet pkt, PageNum page)
{
    ++freezesHandled_;
    statFreezesHandled_.get() += 1;
    trace::ScopedSpan span(node_.sim(), track_, "freezeService");
    SHRIMP_DEBUG("node%u daemon: servicing freeze for page %u",
                 unsigned(id()), unsigned(page));
    co_await node_.cpu().use(node_.config().interruptHandlerCost);
    nic::FreezeAction action;
    if (freezePolicy_) {
        action = freezePolicy_(pkt, page);
    } else {
        warn(logging::format("node %u: packet for disabled page %u "
                             "dropped", unsigned(id()), unsigned(page)));
        action = nic::FreezeAction::Drop;
    }
    node_.nic().incoming().unfreeze(action);
}

} // namespace shrimp::vmmc
