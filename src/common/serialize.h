/**
 * @file
 * Minimal deterministic binary serialization for checkpoint/resume.
 *
 * The soak campaigns (src/ras/soak.h) periodically freeze the live RAS
 * datapath -- fault sets, remap tables, swap registers, poison state --
 * and must restore it bit-identically, so the encoding has to be
 * platform-stable: fixed-width little-endian integers, doubles as their
 * IEEE-754 bit pattern, explicit lengths on every container. No
 * varints, no endianness surprises, no implementation-defined layout.
 *
 * ByteSource treats every malformed read (truncation, overlong
 * container, out-of-range enum byte) as fatal: a checkpoint is either
 * exactly right or useless, and continuing from half-parsed RAS state
 * would silently invalidate the determinism proof the checkpoint
 * exists to provide.
 */

#ifndef CITADEL_COMMON_SERIALIZE_H
#define CITADEL_COMMON_SERIALIZE_H

#include <array>
#include <bit>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace citadel {

/** Append-only little-endian byte stream. */
class ByteSink
{
  public:
    void putU8(u8 v) { bytes_.push_back(v); }

    void putU32(u32 v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void putU64(u64 v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void putBool(bool v) { putU8(v ? 1 : 0); }

    /** IEEE-754 bit pattern; bit-exact round trip. */
    void putDouble(double v) { putU64(std::bit_cast<u64>(v)); }

    const std::vector<u8> &bytes() const { return bytes_; }

  private:
    std::vector<u8> bytes_;
};

/** Sequential reader over a ByteSink's output; truncation is fatal. */
class ByteSource
{
  public:
    explicit ByteSource(const std::vector<u8> &bytes) : bytes_(bytes) {}

    u8 getU8()
    {
        need(1);
        return bytes_[pos_++];
    }

    u32 getU32()
    {
        need(4);
        u32 v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<u32>(bytes_[pos_++]) << (8 * i);
        return v;
    }

    u64 getU64()
    {
        need(8);
        u64 v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<u64>(bytes_[pos_++]) << (8 * i);
        return v;
    }

    bool getBool() { return getU8() != 0; }

    double getDouble() { return std::bit_cast<double>(getU64()); }

    /** One-byte enum whose last enumerator is `last`; an out-of-range
     *  byte is fatal, like truncation. */
    template <typename E>
        requires std::is_enum_v<E>
    E getEnum(E last, const char *what)
    {
        const u8 v = getU8();
        if (v > static_cast<u8>(last))
            fatal("checkpoint: %s byte %u out of range (last %u)", what,
                  static_cast<unsigned>(v), static_cast<unsigned>(last));
        return static_cast<E>(v);
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return bytes_.size() - pos_; }

    /**
     * Container length guard: a corrupt length field must fail here,
     * not as a multi-gigabyte allocation. Each element needs at least
     * `elem_bytes` bytes still in the stream.
     */
    u64 getCount(std::size_t elem_bytes)
    {
        const u64 n = getU64();
        if (elem_bytes != 0 && n > remaining() / elem_bytes)
            fatal("checkpoint: container count %llu exceeds remaining "
                  "%zu bytes",
                  static_cast<unsigned long long>(n), remaining());
        return n;
    }

  private:
    void need(std::size_t n) const
    {
        if (pos_ + n > bytes_.size())
            fatal("checkpoint: truncated stream (want %zu bytes at "
                  "offset %zu of %zu)",
                  n, pos_, bytes_.size());
    }

    const std::vector<u8> &bytes_;
    std::size_t pos_ = 0;
};

/**
 * A flat counter set: a struct whose members are all u64, so its
 * declaration alone is the field list. The helpers below view it as
 * one u64 array in declaration order, which makes a new member flow
 * through sum, write and read with no hand-kept copy to update. The
 * constraint rejects padding and floating-point members at compile
 * time; a narrower integer member would not be caught, which is why
 * every member must be u64.
 */
template <typename T>
concept U64Fields = std::is_trivially_copyable_v<T> &&
                    std::has_unique_object_representations_v<T> &&
                    sizeof(T) % sizeof(u64) == 0;

template <U64Fields T>
using U64FieldArray = std::array<u64, sizeof(T) / sizeof(u64)>;

/** Field-wise acc += c. */
template <U64Fields T>
void
addU64Fields(T &acc, const T &c)
{
    auto sum = std::bit_cast<U64FieldArray<T>>(acc);
    const auto add = std::bit_cast<U64FieldArray<T>>(c);
    for (std::size_t i = 0; i < sum.size(); ++i)
        sum[i] += add[i];
    acc = std::bit_cast<T>(sum);
}

/** Every field, in declaration order. */
template <U64Fields T>
void
putU64Fields(ByteSink &sink, const T &c)
{
    for (const u64 v : std::bit_cast<U64FieldArray<T>>(c))
        sink.putU64(v);
}

/** Exact inverse of putU64Fields(). */
template <U64Fields T>
T
getU64Fields(ByteSource &src)
{
    U64FieldArray<T> fields;
    for (u64 &v : fields)
        v = src.getU64();
    return std::bit_cast<T>(fields);
}

/** FNV-1a 64-bit, the checkpoint/stats fingerprint hash. */
inline u64
fnv1a(const u8 *data, std::size_t len, u64 seed = 0xCBF29CE484222325ull)
{
    u64 h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

inline u64
fnv1a(const std::vector<u8> &bytes, u64 seed = 0xCBF29CE484222325ull)
{
    return fnv1a(bytes.data(), bytes.size(), seed);
}

} // namespace citadel

#endif // CITADEL_COMMON_SERIALIZE_H
