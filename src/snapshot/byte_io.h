#ifndef RPG_SNAPSHOT_BYTE_IO_H_
#define RPG_SNAPSHOT_BYTE_IO_H_

/// \file
/// Bounds-checked little-endian primitives shared by the snapshot writer
/// and reader. The reader side never trusts a length it just decoded:
/// every Get* checks the remaining byte count first and fails by
/// returning false, so a truncated or hostile section runs out of input
/// instead of reading out of bounds (the graph_io resize-bomb lesson,
/// applied from the start).

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace rpg::snapshot {

static_assert(std::endian::native == std::endian::little,
              "snapshot format assumes a little-endian host");

/// Appends fixed-width scalars and varints to a growing byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutBytes(const void* data, size_t size) {
    if (size == 0) return;
    const size_t at = out_->size();
    out_->resize(at + size);
    std::memcpy(out_->data() + at, data, size);
  }

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(&value, sizeof(value));
  }

  /// LEB128-style base-128 varint, low 7 bits first.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_->push_back(static_cast<uint8_t>(v));
  }

  void PutString(const std::string& s) {
    PutVarint(s.size());
    PutBytes(s.data(), s.size());
  }

  size_t size() const { return out_->size(); }

 private:
  std::vector<uint8_t>* out_;
};

/// Sequential reader over an immutable byte span. Every accessor
/// bounds-checks; on failure the reader stays usable but `ok()` callers
/// should bail with InvalidArgument.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  bool GetBytes(void* out, size_t size) {
    if (size > remaining()) return false;
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  template <typename T>
  bool Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return GetBytes(out, sizeof(T));
  }

  /// Decodes a varint; rejects truncation and encodings longer than 10
  /// bytes (no 64-bit value needs more).
  bool GetVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) return false;
      uint8_t byte = data_[pos_++];
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // The tenth byte may only contribute the top bit of the value.
        if (shift == 63 && byte > 1) return false;
        *out = v;
        return true;
      }
    }
    return false;  // unterminated after 10 bytes
  }

  /// Reads a varint-length-prefixed string; the claimed length is
  /// checked against the remaining bytes before any allocation.
  bool GetString(std::string* out) {
    uint64_t len = 0;
    if (!GetVarint(&len) || len > remaining()) return false;
    out->assign(reinterpret_cast<const char*>(data_.data() + pos_),
                static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return true;
  }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace rpg::snapshot

#endif  // RPG_SNAPSHOT_BYTE_IO_H_
