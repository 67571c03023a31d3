#include "rpc/xdr.hh"

#include <cstring>

#include "base/logging.hh"

namespace shrimp::rpc
{

namespace
{

void
storeBe32(std::uint8_t *out, std::uint32_t v)
{
    out[0] = std::uint8_t(v >> 24);
    out[1] = std::uint8_t(v >> 16);
    out[2] = std::uint8_t(v >> 8);
    out[3] = std::uint8_t(v);
}

std::uint32_t
loadBe32(const std::uint8_t *in)
{
    return (std::uint32_t(in[0]) << 24) | (std::uint32_t(in[1]) << 16) |
           (std::uint32_t(in[2]) << 8) | std::uint32_t(in[3]);
}

} // namespace

// ---- sinks and sources -------------------------------------------------

sim::Task<>
BufferSink::put(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + n);
    co_return;
}

sim::Task<>
BufferSource::get(void *out, std::size_t n)
{
    if (pos_ + n > buf_.size())
        panic("XDR decode past end of buffer");
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    co_return;
}

sim::Task<>
StreamSink::put(const void *data, std::size_t n)
{
    // Deferred publish: the control word goes out once per transfer.
    if (proto_ == sock::StreamProto::AuTwoCopy)
        return stream_.sendHost(data, n, proto_, /*publish=*/false);
    return append(data, n);
}

sim::Task<>
StreamSink::append(const void *data, std::size_t n)
{
    // DU configurations marshal the record first; drain() sends it
    // with one deliberate update.
    const auto *p = static_cast<const std::uint8_t *>(data);
    pending_.insert(pending_.end(), p, p + n);
    co_return;
}

sim::Task<>
StreamSink::drain()
{
    if (pending_.empty())
        co_return;
    std::vector<std::uint8_t> out;
    out.swap(pending_);
    co_await stream_.sendHost(out.data(), out.size(), proto_,
                              /*publish=*/false);
}

sim::Task<>
StreamSource::get(void *out, std::size_t n)
{
    return stream_.recvHost(out, n);
}

// ---- encoder -------------------------------------------------------------

sim::Task<>
XdrEncoder::putU32(std::uint32_t v)
{
    std::uint8_t b[4];
    storeBe32(b, v);
    if (node::Process *p = sink_.process())
        co_await p->compute(xdrOpCost);
    co_await sink_.put(b, 4);
}

sim::Task<>
XdrEncoder::putI32(std::int32_t v)
{
    return putU32(std::uint32_t(v));
}

sim::Task<>
XdrEncoder::putU64(std::uint64_t v)
{
    co_await putU32(std::uint32_t(v >> 32));
    co_await putU32(std::uint32_t(v));
}

sim::Task<>
XdrEncoder::putI64(std::int64_t v)
{
    return putU64(std::uint64_t(v));
}

sim::Task<>
XdrEncoder::putBool(bool v)
{
    return putU32(v ? 1 : 0);
}

sim::Task<>
XdrEncoder::putFloat(float v)
{
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return putU32(bits);
}

sim::Task<>
XdrEncoder::putDouble(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return putU64(bits);
}

sim::Task<>
XdrEncoder::putOpaque(const void *data, std::size_t n)
{
    static const std::uint8_t zeros[4] = {0, 0, 0, 0};
    if (node::Process *p = sink_.process())
        co_await p->compute(xdrOpCost);
    if (n > 0)
        co_await sink_.put(data, n);
    std::size_t pad = (4 - n % 4) % 4;
    if (pad)
        co_await sink_.put(zeros, pad);
}

sim::Task<>
XdrEncoder::putBytes(const void *data, std::size_t n)
{
    co_await putU32(std::uint32_t(n));
    co_await putOpaque(data, n);
}

sim::Task<>
XdrEncoder::putString(const std::string &s)
{
    return putBytes(s.data(), s.size());
}

// ---- decoder -------------------------------------------------------------

sim::Task<std::uint32_t>
XdrDecoder::getU32()
{
    std::uint8_t b[4];
    if (node::Process *p = source_.process())
        co_await p->compute(xdrOpCost);
    co_await source_.get(b, 4);
    co_return loadBe32(b);
}

sim::Task<std::int32_t>
XdrDecoder::getI32()
{
    std::uint32_t v = co_await getU32();
    co_return std::int32_t(v);
}

sim::Task<std::uint64_t>
XdrDecoder::getU64()
{
    std::uint64_t hi = co_await getU32();
    std::uint64_t lo = co_await getU32();
    co_return (hi << 32) | lo;
}

sim::Task<std::int64_t>
XdrDecoder::getI64()
{
    std::uint64_t v = co_await getU64();
    co_return std::int64_t(v);
}

sim::Task<bool>
XdrDecoder::getBool()
{
    std::uint32_t v = co_await getU32();
    co_return v != 0;
}

sim::Task<float>
XdrDecoder::getFloat()
{
    std::uint32_t bits = co_await getU32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    co_return v;
}

sim::Task<double>
XdrDecoder::getDouble()
{
    std::uint64_t bits = co_await getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    co_return v;
}

sim::Task<>
XdrDecoder::getOpaque(void *out, std::size_t n)
{
    if (node::Process *p = source_.process())
        co_await p->compute(xdrOpCost);
    if (n > 0)
        co_await source_.get(out, n);
    std::size_t pad = (4 - n % 4) % 4;
    if (pad) {
        std::uint8_t scratch[4];
        co_await source_.get(scratch, pad);
    }
}

sim::Task<std::vector<std::uint8_t>>
XdrDecoder::getBytes(std::size_t max)
{
    std::uint32_t n = co_await getU32();
    if (n > max)
        panic("XDR opaque exceeds bound");
    std::vector<std::uint8_t> v(n);
    co_await getOpaque(v.data(), n);
    co_return v;
}

sim::Task<std::string>
XdrDecoder::getString(std::size_t max)
{
    std::vector<std::uint8_t> v = co_await getBytes(max);
    co_return std::string(v.begin(), v.end());
}

} // namespace shrimp::rpc
