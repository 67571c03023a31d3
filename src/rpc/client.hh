/**
 * @file
 * VrpcClient: the client half of VRPC — SunRPC's CLNT handle (RPCLIB
 * layer) with the stream layer folded into XDR. clnt_call() becomes
 * call(): encode the RFC 1057 call header and the arguments straight
 * into the outgoing cyclic queue, then decode the reply header and
 * results from the incoming queue. The queues are one sock::ByteStream
 * pair, bound at clnt_create time by its connect().
 */

#ifndef SHRIMP_RPC_CLIENT_HH
#define SHRIMP_RPC_CLIENT_HH

#include <functional>
#include <memory>

#include "base/stats.hh"
#include "base/trace.hh"
#include "rpc/rpc_msg.hh"
#include "sock/ring.hh"

namespace shrimp::rpc
{

/** The magic of VRPC's binding hello. */
constexpr std::uint32_t vrpcMagic = 0x56525043; // "VRPC"

struct VrpcOptions
{
    std::size_t queueBytes = 32 * 1024;
    /** Data protocol for the queues (Figure 5's AU/DU curves). */
    sock::StreamProto proto = sock::StreamProto::AuTwoCopy;
};

class VrpcClient
{
  public:
    VrpcClient(vmmc::Endpoint &ep, VrpcOptions opt = VrpcOptions{});

    /** clnt_create: bind to the server's listener. */
    sim::Task<bool> connect(NodeId server, std::uint16_t port,
                            std::uint32_t prog, std::uint32_t vers);

    using EncodeFn = std::function<sim::Task<>(XdrEncoder &)>;
    using DecodeFn = std::function<sim::Task<>(XdrDecoder &)>;

    /**
     * clnt_call: one synchronous RPC. @p encode_args marshals the
     * arguments; @p decode_results unmarshals the results (invoked only
     * on SUCCESS).
     */
    sim::Task<AcceptStat> call(std::uint32_t proc, EncodeFn encode_args,
                               DecodeFn decode_results);

    /** clnt_destroy. */
    sim::Task<> close();

    bool connected() const { return bool(stream_); }
    std::uint64_t callsMade() const { return calls_; }

  private:
    vmmc::Endpoint &ep_;
    VrpcOptions opt_;
    std::unique_ptr<sock::ByteStream> stream_;
    std::uint32_t prog_ = 0;
    std::uint32_t vers_ = 0;
    std::uint32_t nextXid_ = 1;
    std::uint64_t calls_ = 0;
    stats::Group stats_;
    trace::TrackId track_;
    //! Counted per call; looked up by name once, at the first call.
    stats::LazyCounter statCalls_{stats_, "calls"};
};

} // namespace shrimp::rpc

#endif // SHRIMP_RPC_CLIENT_HH
