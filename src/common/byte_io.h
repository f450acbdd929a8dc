// Little-endian byte primitives shared by the binary formats: snapshot
// files (snapshot/snapshot_io.h) and DPXCOL headers (data/columnar_format.h).
// Integers are little-endian regardless of host and doubles travel as their
// IEEE-754 bit pattern, so a write → read round trip is bit-for-bit.
// ByteReader is hard against truncated and hostile input: every read is
// bounds-checked and returns Status instead of reading past the end.

#ifndef DPCLUSTX_COMMON_BYTE_IO_H_
#define DPCLUSTX_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "common/status.h"

namespace dpclustx {

/// Appends little-endian primitives to a byte buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void PutU32(uint32_t value) { PutLittleEndian(value, 4); }
  void PutU64(uint64_t value) { PutLittleEndian(value, 8); }
  /// IEEE-754 bit pattern in a u64 — exact, never printf-rounded.
  void PutDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    PutU64(bits);
  }
  /// u64 length followed by the raw bytes.
  void PutString(const std::string& value) {
    PutU64(value.size());
    buffer_.append(value);
  }
  void PutBytes(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  void PutLittleEndian(uint64_t value, size_t size) {
    char bytes[8];
    for (size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
    }
    buffer_.append(bytes, size);
  }

  std::string buffer_;
};

/// Bounds-checked little-endian reads over a byte span. Never reads past
/// the end: truncation yields IoError, not UB.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(const std::string& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  StatusOr<uint8_t> GetU8() {
    DPX_ASSIGN_OR_RETURN(const uint64_t value, GetLittleEndian(1));
    return static_cast<uint8_t>(value);
  }
  StatusOr<uint32_t> GetU32() {
    DPX_ASSIGN_OR_RETURN(const uint64_t value, GetLittleEndian(4));
    return static_cast<uint32_t>(value);
  }
  StatusOr<uint64_t> GetU64() { return GetLittleEndian(8); }
  StatusOr<double> GetDouble() {
    DPX_ASSIGN_OR_RETURN(const uint64_t bits, GetU64());
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  /// A u64 length, then that many bytes. The length is attacker-controlled
  /// in a corrupted file, so it is bounded by the bytes left before
  /// anything is allocated.
  StatusOr<std::string> GetString() {
    DPX_ASSIGN_OR_RETURN(const uint64_t size, GetU64());
    return GetBytes(size);
  }
  /// Exactly `size` raw bytes (no length prefix).
  StatusOr<std::string> GetBytes(size_t size) {
    DPX_RETURN_IF_ERROR(Need(size));
    std::string value(data_ + pos_, size);
    pos_ += size;
    return value;
  }
  /// A u64 element count, refused (IoError) when `count` elements of at
  /// least `min_item_bytes` each cannot fit in the bytes left — so a
  /// corrupted count never reaches a reserve().
  StatusOr<uint64_t> GetCount(size_t min_item_bytes) {
    DPX_ASSIGN_OR_RETURN(const uint64_t count, GetU64());
    if (count > remaining() / min_item_bytes) {
      return Status::IoError("count " + std::to_string(count) +
                             " at offset " + std::to_string(pos_ - 8) +
                             " exceeds the " + std::to_string(remaining()) +
                             " bytes left");
    }
    return count;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Need(size_t bytes) const {
    if (remaining() >= bytes) return Status::OK();
    return Status::IoError("truncated: need " + std::to_string(bytes) +
                           " bytes at offset " + std::to_string(pos_) +
                           ", have " + std::to_string(remaining()));
  }
  StatusOr<uint64_t> GetLittleEndian(size_t size) {
    DPX_RETURN_IF_ERROR(Need(size));
    uint64_t value = 0;
    for (size_t i = 0; i < size; ++i) {
      value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += size;
    return value;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_BYTE_IO_H_
