/**
 * @file
 * XDR: External Data Representation (RFC 1014/4506) runtime used by the
 * VRPC library (paper section 4.2). All quantities are big-endian and
 * padded to 4-byte units, exactly as on the wire.
 *
 * In VRPC the expensive stream layer of standard SunRPC is folded into
 * XDR: the encoder writes fields *directly* into the AU-bound cyclic
 * queue (StreamSink), so there is no sender-side copy. For tests and
 * in-memory marshalling a host-buffer sink/source is also provided.
 *
 * A field costs the coroutine frames that do work and no others: the
 * encoder or decoder call itself, and, on a stream, the ByteStream
 * transfer that StreamSink::put and StreamSource::get return as is
 * (on an AU stream, sendHost and the one Process::write that stores
 * the field). The per-field bookkeeping charge is a Process::compute
 * hold in the encoder's or decoder's own frame, on the CPU of the
 * process a timed sink or source names (none for host buffers).
 */

#ifndef SHRIMP_RPC_XDR_HH
#define SHRIMP_RPC_XDR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/task.hh"
#include "sock/ring.hh"

namespace shrimp::rpc
{

/** Per-XDR-operation CPU cost (field bookkeeping on the 60 MHz
 *  Pentium); calibrated so a null VRPC round trip lands near the
 *  paper's 29 us. */
constexpr Tick xdrOpCost = 300;

/** Abstract, possibly timed, byte sink for the encoder. */
class XdrSink
{
  public:
    virtual ~XdrSink() = default;

    /** Append @p n bytes. */
    virtual sim::Task<> put(const void *data, std::size_t n) = 0;

    /** The process whose CPU each field's bookkeeping (xdrOpCost)
     *  occupies; null for an untimed host buffer. */
    node::Process *process() const { return proc_; }

  protected:
    explicit XdrSink(node::Process *proc) : proc_(proc) {}

  private:
    node::Process *proc_;
};

/** Abstract, possibly timed, byte source for the decoder. */
class XdrSource
{
  public:
    virtual ~XdrSource() = default;
    virtual sim::Task<> get(void *out, std::size_t n) = 0;

    /** As XdrSink::process(). */
    node::Process *process() const { return proc_; }

  protected:
    explicit XdrSource(node::Process *proc) : proc_(proc) {}

  private:
    node::Process *proc_;
};

/** Untimed host-buffer sink (tests, golden-byte checks). */
class BufferSink : public XdrSink
{
  public:
    BufferSink() : XdrSink(nullptr) {}

    sim::Task<> put(const void *data, std::size_t n) override;
    const std::vector<std::uint8_t> &bytes() const { return buf_; }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Untimed host-buffer source. */
class BufferSource : public XdrSource
{
  public:
    explicit BufferSource(std::vector<std::uint8_t> bytes)
        : XdrSource(nullptr), buf_(std::move(bytes))
    {}

    sim::Task<> get(void *out, std::size_t n) override;
    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

/**
 * Timed sink writing into a VMMC cyclic queue. In the AU configuration
 * every put() goes straight into the bound send area (no sender-side
 * copy: the encode is the transfer). In the DU configurations the
 * fields are marshalled into a host buffer first and a single
 * deliberate update carries the record — call drain() at record end.
 */
class StreamSink : public XdrSink
{
  public:
    StreamSink(sock::ByteStream &stream, node::Process &proc,
               sock::StreamProto proto = sock::StreamProto::AuTwoCopy)
        : XdrSink(&proc), stream_(stream), proto_(proto)
    {}

    /** AU: the stream's sendHost task itself; DU: append to the
     *  marshal buffer. */
    sim::Task<> put(const void *data, std::size_t n) override;

    /** Flush any DU-mode marshal buffer into the queue. */
    sim::Task<> drain();

  private:
    sim::Task<> append(const void *data, std::size_t n);

    sock::ByteStream &stream_;
    sock::StreamProto proto_;
    std::vector<std::uint8_t> pending_;
};

/** Timed source reading out of a VMMC cyclic queue. */
class StreamSource : public XdrSource
{
  public:
    StreamSource(sock::ByteStream &stream, node::Process &proc)
        : XdrSource(&proc), stream_(stream)
    {}

    /** The stream's recvHost task itself. */
    sim::Task<> get(void *out, std::size_t n) override;

  private:
    sock::ByteStream &stream_;
};

/** XDR encoder: the xdr_* ENCODE direction. */
class XdrEncoder
{
  public:
    explicit XdrEncoder(XdrSink &sink) : sink_(sink) {}

    sim::Task<> putU32(std::uint32_t v);
    sim::Task<> putI32(std::int32_t v);
    sim::Task<> putU64(std::uint64_t v);
    sim::Task<> putI64(std::int64_t v);
    sim::Task<> putBool(bool v);
    sim::Task<> putFloat(float v);
    sim::Task<> putDouble(double v);

    /** Fixed-length opaque (padded to 4 bytes on the wire). */
    sim::Task<> putOpaque(const void *data, std::size_t n);

    /** Variable-length opaque: length word + padded bytes. */
    sim::Task<> putBytes(const void *data, std::size_t n);

    /** XDR string: length word + padded bytes. */
    sim::Task<> putString(const std::string &s);

    /** Variable-length array: length + per-element encoder. */
    template <typename T, typename Fn>
    sim::Task<>
    putArray(const std::vector<T> &v, Fn per_element)
    {
        co_await putU32(std::uint32_t(v.size()));
        for (const T &e : v)
            co_await per_element(*this, e);
    }

    XdrSink &sink() { return sink_; }

  private:
    XdrSink &sink_;
};

/** XDR decoder: the xdr_* DECODE direction. */
class XdrDecoder
{
  public:
    explicit XdrDecoder(XdrSource &source) : source_(source) {}

    sim::Task<std::uint32_t> getU32();
    sim::Task<std::int32_t> getI32();
    sim::Task<std::uint64_t> getU64();
    sim::Task<std::int64_t> getI64();
    sim::Task<bool> getBool();
    sim::Task<float> getFloat();
    sim::Task<double> getDouble();

    sim::Task<> getOpaque(void *out, std::size_t n);

    /** @return variable-length opaque, bounded by @p max (throws
     *  PanicError via panic on violation — GARBAGE_ARGS territory). */
    sim::Task<std::vector<std::uint8_t>> getBytes(std::size_t max);

    sim::Task<std::string> getString(std::size_t max);

    template <typename T, typename Fn>
    sim::Task<std::vector<T>>
    getArray(std::size_t max, Fn per_element)
    {
        std::uint32_t n = co_await getU32();
        if (n > max)
            panic("XDR array exceeds bound");
        std::vector<T> v;
        v.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            T elem = co_await per_element(*this);
            v.push_back(std::move(elem));
        }
        co_return v;
    }

    XdrSource &source() { return source_; }

  private:
    XdrSource &source_;
};

} // namespace shrimp::rpc

#endif // SHRIMP_RPC_XDR_HH
