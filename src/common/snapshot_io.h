// Byte-stream primitives for checkpoint/restore.
//
// Every resumable subsystem (cache, DRAM, telemetry bus, workload cursors,
// the scheduler itself) serializes its state through these classes so
// snapshot encoding rules live in exactly one place: little-endian
// fixed-width integers, bit-exact doubles (raw IEEE-754 payload), and
// length-prefixed strings/blobs. The reader throws `snapshot_error` on any
// structural problem (truncation, impossible lengths) so malformed or
// version-skewed snapshots are rejected with a clear message instead of
// resuming a corrupt simulation.
//
// Large record arrays (the cache's transparent lines) go through spans:
// `snapshot_writer::span(n)` / `snapshot_reader::span(n)` do one capacity
// or bounds check for all `n` bytes and hand back a cursor that encodes
// or decodes the fields inside with no further checks. The single-field
// methods are one-field spans, so both paths produce the same bytes.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace camdn {

/// Raised on malformed snapshot input: truncation, bad magic, version
/// mismatch, geometry mismatch against the resuming configuration.
class snapshot_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

namespace snapshot_detail {

// The byte order, defined once. Each byte is spelled out (no loop; stores
// go through a local array and one memcpy) so that -O2 and up fold every
// field into a single move on little-endian hosts.
inline void store_le32(std::uint8_t* p, std::uint32_t v) {
    const std::uint8_t b[4] = {
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
    std::memcpy(p, b, sizeof b);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
    const std::uint8_t b[8] = {
        static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
        static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24),
        static_cast<std::uint8_t>(v >> 32), static_cast<std::uint8_t>(v >> 40),
        static_cast<std::uint8_t>(v >> 48), static_cast<std::uint8_t>(v >> 56)};
    std::memcpy(p, b, sizeof b);
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
    return std::uint64_t{load_le32(p)} | std::uint64_t{load_le32(p + 4)} << 32;
}

/// Out-of-line throw path of every bounds check.
[[noreturn]] void throw_truncated(std::size_t pos, std::uint64_t need,
                                  std::size_t have);

}  // namespace snapshot_detail

/// Encodes fields into a span reserved by snapshot_writer::span. The
/// caller writes exactly the span's size before the next append to the
/// writer (which may move the buffer).
class snapshot_span_writer {
public:
    void u8(std::uint8_t v) { *take(1) = v; }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v) { snapshot_detail::store_le32(take(4), v); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void u64(std::uint64_t v) { snapshot_detail::store_le64(take(8), v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /// Raw IEEE-754 payload: round-trips bit-exactly, NaNs included.
    void d(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

private:
    friend class snapshot_writer;
    snapshot_span_writer(std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

    std::uint8_t* take(std::size_t n) {
        assert(n <= static_cast<std::size_t>(end_ - p_) && "span overrun");
        std::uint8_t* at = p_;
        p_ += n;
        return at;
    }

    std::uint8_t* p_;
    std::uint8_t* end_;
};

/// Decodes fields from a span claimed by snapshot_reader::span, whose
/// bounds were checked once for the whole span.
class snapshot_span_reader {
public:
    std::uint8_t u8() { return *take(1); }
    bool b() { return u8() != 0; }
    std::uint32_t u32() { return snapshot_detail::load_le32(take(4)); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::uint64_t u64() { return snapshot_detail::load_le64(take(8)); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double d() {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

private:
    friend class snapshot_reader;
    snapshot_span_reader(const std::uint8_t* p, std::size_t n)
        : p_(p), end_(p + n) {}

    const std::uint8_t* take(std::size_t n) {
        assert(n <= static_cast<std::size_t>(end_ - p_) && "span overrun");
        const std::uint8_t* at = p_;
        p_ += n;
        return at;
    }

    const std::uint8_t* p_;
    const std::uint8_t* end_;
};

/// Appends snapshot fields to a growing byte buffer.
class snapshot_writer {
public:
    void u8(std::uint8_t v) { span(1).u8(v); }
    void b(bool v) { span(1).b(v); }
    void u32(std::uint32_t v) { span(4).u32(v); }
    void i32(std::int32_t v) { span(4).i32(v); }
    void u64(std::uint64_t v) { span(8).u64(v); }
    void i64(std::int64_t v) { span(8).i64(v); }
    void d(double v) { span(8).d(v); }

    void str(const std::string& s) {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /// Length-prefixed opaque blob (nested subsystem sections).
    void blob(const std::vector<std::uint8_t>& bytes) {
        u64(bytes.size());
        buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }

    /// Appends `n` bytes with one capacity check; the cursor encodes the
    /// fields inside them.
    snapshot_span_writer span(std::size_t n) {
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        return snapshot_span_writer(buf_.data() + at, n);
    }

    const std::vector<std::uint8_t>& bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

/// Consumes snapshot fields from a byte buffer; throws snapshot_error on
/// truncation. `done()` lets callers reject trailing garbage.
class snapshot_reader {
public:
    snapshot_reader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}
    explicit snapshot_reader(const std::vector<std::uint8_t>& bytes)
        : snapshot_reader(bytes.data(), bytes.size()) {}

    std::uint8_t u8() { return span(1).u8(); }
    bool b() { return span(1).b(); }
    std::uint32_t u32() { return span(4).u32(); }
    std::int32_t i32() { return span(4).i32(); }
    std::uint64_t u64() { return span(8).u64(); }
    std::int64_t i64() { return span(8).i64(); }
    double d() { return span(8).d(); }

    std::string str() {
        const std::uint64_t n = u64();
        const std::uint8_t* p = claim(n);
        return std::string(reinterpret_cast<const char*>(p),
                           static_cast<std::size_t>(n));
    }

    std::vector<std::uint8_t> blob() {
        const std::uint64_t n = u64();
        const std::uint8_t* p = claim(n);
        return std::vector<std::uint8_t>(p, p + n);
    }

    /// Claims the next `n` bytes with one bounds check (throws
    /// snapshot_error when fewer remain); the cursor decodes the fields
    /// inside them.
    snapshot_span_reader span(std::uint64_t n) {
        const std::uint8_t* p = claim(n);
        return snapshot_span_reader(p, static_cast<std::size_t>(n));
    }

    /// Element count for a following sequence, sanity-bounded so a corrupt
    /// length fails fast instead of driving a multi-gigabyte loop.
    std::uint64_t count(std::uint64_t min_elem_bytes = 1) {
        const std::uint64_t n = u64();
        if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes)
            throw snapshot_error(
                "snapshot truncated: sequence of " + std::to_string(n) +
                " elements does not fit in the remaining " +
                std::to_string(remaining()) + " bytes");
        return n;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

private:
    const std::uint8_t* claim(std::uint64_t n) {
        if (n > remaining())
            snapshot_detail::throw_truncated(pos_, n, remaining());
        const std::uint8_t* at = data_ + pos_;
        pos_ += static_cast<std::size_t>(n);
        return at;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

}  // namespace camdn
