#include "rpc/server.hh"

#include "base/logging.hh"

namespace shrimp::rpc
{

VrpcServer::VrpcServer(vmmc::Endpoint &ep, std::uint16_t port,
                       VrpcOptions opt)
    : ep_(ep), port_(port), opt_(opt)
{
}

void
VrpcServer::registerProc(std::uint32_t prog, std::uint32_t vers,
                         std::uint32_t proc, Handler handler)
{
    procs_[{prog, vers, proc}] = std::move(handler);
    programs_.insert({prog, vers});
}

void
VrpcServer::start()
{
    if (started_)
        panic("VRPC server started twice");
    started_ = true;
    ep_.proc().sim().spawnDaemon(acceptLoop());
}

sim::Task<>
VrpcServer::acceptLoop()
{
    for (;;) {
        auto stream =
            std::make_unique<sock::ByteStream>(ep_, opt_.queueBytes);
        vmmc::Status st = co_await stream->accept(port_, vrpcMagic);
        if (st != vmmc::Status::Ok) {
            warn(std::string("VRPC server could not bind a client: ") +
                 vmmc::statusName(st));
            continue;
        }
        streams_.push_back(std::move(stream));
        ep_.proc().sim().spawnDaemon(serve(*streams_.back()));
    }
}

sim::Task<>
VrpcServer::serve(sock::ByteStream &stream)
{
    node::Process &p = ep_.proc();

    for (;;) {
        // Wait for the next call (or an orderly shutdown).
        if (stream.available() == 0) {
            const std::size_t avail = co_await stream.waitReadable();
            if (avail == 0)
                co_return;
        }
        // The detecting read of freshly-DMAed data misses in the cache.
        co_await sim::Delay{p.sim().queue(), p.config().wtReceivePenalty};

        StreamSource source(stream, p);
        XdrDecoder dec(source);
        CallHeader hdr = co_await CallHeader::decode(dec);

        // Dispatch. "About 5-6 usecs in processing the header."
        co_await p.compute(2 * p.config().cpuOpCost);
        AcceptStat stat = AcceptStat::Success;
        Handler *handler = nullptr;
        auto it = procs_.find({hdr.prog, hdr.vers, hdr.proc});
        if (it != procs_.end()) {
            handler = &it->second;
        } else if (programs_.count({hdr.prog, hdr.vers})) {
            stat = AcceptStat::ProcUnavail;
        } else {
            stat = AcceptStat::ProgUnavail;
        }

        ServiceResult result;
        if (handler) {
            result = co_await (*handler)(dec);
            stat = result.stat;
        }
        co_await stream.flushAck();
        ++calls_;

        StreamSink sink(stream, p, opt_.proto);
        XdrEncoder enc(sink);
        ReplyHeader rh;
        rh.xid = hdr.xid;
        rh.stat = stat;
        co_await rh.encode(enc);
        if (stat == AcceptStat::Success && result.results)
            co_await result.results(enc);
        co_await sink.drain();
        co_await stream.flushTail();

        if (!handler) {
            // Unknown program/procedure: the argument bytes cannot be
            // skipped without a framing layer; drop the binding.
            co_await stream.close();
            co_return;
        }
    }
}

} // namespace shrimp::rpc
