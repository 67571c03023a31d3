#include "rpc/client.hh"

#include "base/logging.hh"

namespace shrimp::rpc
{

VrpcClient::VrpcClient(vmmc::Endpoint &ep, VrpcOptions opt)
    : ep_(ep), opt_(opt),
      stats_("node" + std::to_string(ep.nodeId()) + ".p" +
             std::to_string(ep.pid()) + ".vrpc"),
      track_(trace::track(stats_.name()))
{
}

sim::Task<bool>
VrpcClient::connect(NodeId server, std::uint16_t port, std::uint32_t prog,
                    std::uint32_t vers)
{
    co_await ep_.proc().compute(ep_.proc().config().libCallCost);
    stream_ = std::make_unique<sock::ByteStream>(ep_, opt_.queueBytes);
    vmmc::Status st = co_await stream_->connect(server, port, vrpcMagic);
    if (st != vmmc::Status::Ok) {
        stream_.reset();
        co_return false;
    }
    prog_ = prog;
    vers_ = vers;
    co_return true;
}

sim::Task<AcceptStat>
VrpcClient::call(std::uint32_t proc, EncodeFn encode_args,
                 DecodeFn decode_results)
{
    if (!stream_)
        panic("clnt_call on an unconnected client");
    node::Process &p = ep_.proc();
    trace::ScopedSpan span(p.sim(), track_, "call");
    statCalls_.get() += 1;

    // "About 7 usecs are spent in preparing the header and making the
    // call": library entry plus the header fields encoded below.
    co_await p.compute(p.config().libCallCost);

    StreamSink sink(*stream_, p, opt_.proto);
    XdrEncoder enc(sink);
    CallHeader hdr;
    hdr.xid = nextXid_++;
    hdr.prog = prog_;
    hdr.vers = vers_;
    hdr.proc = proc;
    co_await hdr.encode(enc);
    if (encode_args)
        co_await encode_args(enc);
    // One control transfer publishes the whole call record.
    co_await sink.drain();
    co_await stream_->flushTail();
    ++calls_;

    // Wait for and decode the reply.
    StreamSource source(*stream_, p);
    XdrDecoder dec(source);
    ReplyHeader rh = co_await ReplyHeader::decode(dec);
    if (rh.xid != hdr.xid)
        panic("RPC reply xid mismatch");
    if (rh.stat == AcceptStat::Success && decode_results)
        co_await decode_results(dec);
    co_await stream_->flushAck();
    // "1-2 usecs in returning from the call."
    co_await p.compute(2 * p.config().cpuOpCost);
    co_return rh.stat;
}

sim::Task<>
VrpcClient::close()
{
    if (stream_) {
        co_await stream_->close();
        stream_.reset();
    }
}

} // namespace shrimp::rpc
