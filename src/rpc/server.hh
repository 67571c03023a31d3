/**
 * @file
 * VrpcServer: the service half of VRPC — svc_register/svc_run. The
 * server listens for bindings on an Ethernet port, serves each
 * connection from its VMMC queue pair, dispatches by (program, version,
 * procedure), and replies with RFC 1057 accept status.
 *
 * Note on framing: the queue is a raw byte stream (VRPC deliberately
 * has no record-marking layer — the XDR decoders consume exactly what
 * the encoders produced). A call naming an unknown program/procedure
 * therefore leaves undecodable argument bytes in the queue; the server
 * replies with the error status and closes that binding, as there is no
 * way to resynchronize.
 */

#ifndef SHRIMP_RPC_SERVER_HH
#define SHRIMP_RPC_SERVER_HH

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "rpc/client.hh"

namespace shrimp::rpc
{

class VrpcServer
{
  public:
    VrpcServer(vmmc::Endpoint &ep, std::uint16_t port,
               VrpcOptions opt = VrpcOptions{});

    /** What a service procedure produced. */
    struct ServiceResult
    {
        AcceptStat stat = AcceptStat::Success;
        /** Encodes the results; invoked after the reply header (only on
         *  SUCCESS). */
        VrpcClient::EncodeFn results;
    };

    /** A service procedure: decodes its own arguments (svc_getargs),
     *  computes, and returns the result encoder (svc_sendreply). */
    using Handler = std::function<sim::Task<ServiceResult>(XdrDecoder &)>;

    /** svc_register. */
    void registerProc(std::uint32_t prog, std::uint32_t vers,
                      std::uint32_t proc, Handler handler);

    /** svc_run: start accepting bindings (runs as a daemon). */
    void start();

    std::uint64_t callsServed() const { return calls_; }
    std::size_t connections() const { return streams_.size(); }

  private:
    sim::Task<> acceptLoop();
    sim::Task<> serve(sock::ByteStream &stream);

    vmmc::Endpoint &ep_;
    std::uint16_t port_;
    VrpcOptions opt_;
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
             Handler>
        procs_;
    std::set<std::pair<std::uint32_t, std::uint32_t>> programs_;
    std::vector<std::unique_ptr<sock::ByteStream>> streams_;
    std::uint64_t calls_ = 0;
    bool started_ = false;
};

} // namespace shrimp::rpc

#endif // SHRIMP_RPC_SERVER_HH
