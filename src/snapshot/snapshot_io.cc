#include "snapshot/snapshot_io.h"

#include <cstring>

#include "snapshot/crc32.h"

namespace dpclustx::snapshot {

void ByteWriter::PutU32(uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
  }
  buffer_.append(bytes, sizeof(bytes));
}

void ByteWriter::PutU64(uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
  }
  buffer_.append(bytes, sizeof(bytes));
}

void ByteWriter::PutDouble(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutString(const std::string& value) {
  PutU64(value.size());
  buffer_.append(value);
}

void ByteWriter::PutBytes(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

Status ByteReader::Need(size_t bytes) const {
  if (size_ - pos_ < bytes) {
    return Status::IoError("snapshot truncated: need " +
                           std::to_string(bytes) + " bytes at offset " +
                           std::to_string(pos_) + ", have " +
                           std::to_string(size_ - pos_));
  }
  return Status::OK();
}

StatusOr<uint8_t> ByteReader::GetU8() {
  DPX_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint32_t> ByteReader::GetU32() {
  DPX_RETURN_IF_ERROR(Need(4));
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 4;
  return value;
}

StatusOr<uint64_t> ByteReader::GetU64() {
  DPX_RETURN_IF_ERROR(Need(8));
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
  }
  pos_ += 8;
  return value;
}

StatusOr<double> ByteReader::GetDouble() {
  DPX_ASSIGN_OR_RETURN(const uint64_t bits, GetU64());
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

StatusOr<std::string> ByteReader::GetString() {
  DPX_ASSIGN_OR_RETURN(const uint64_t size, GetU64());
  // The length is attacker-controlled in a corrupted file; bound it by the
  // bytes actually present before allocating.
  return GetBytes(size);
}

StatusOr<std::string> ByteReader::GetBytes(size_t size) {
  DPX_RETURN_IF_ERROR(Need(size));
  std::string value(data_ + pos_, size);
  pos_ += size;
  return value;
}

StatusOr<uint64_t> ByteReader::GetCount(size_t min_item_bytes) {
  DPX_ASSIGN_OR_RETURN(const uint64_t count, GetU64());
  if (count > remaining() / min_item_bytes) {
    return Status::IoError("snapshot count " + std::to_string(count) +
                           " at offset " + std::to_string(pos_ - 8) +
                           " exceeds the " + std::to_string(remaining()) +
                           " bytes left");
  }
  return count;
}

SectionWriter::SectionWriter(uint32_t version) {
  file_.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  ByteWriter header;
  header.PutU32(version);
  file_.append(header.buffer());
}

void SectionWriter::AddSection(SectionId id, const std::string& payload) {
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(id));
  frame.PutU64(payload.size());
  frame.PutU32(Crc32(payload.data(), payload.size()));
  file_.append(frame.buffer());
  file_.append(payload);
}

StatusOr<std::vector<Section>> ParseSnapshotFile(const std::string& bytes,
                                                 uint32_t* version_out) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 4 ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::IoError("not a DPClustX snapshot (bad magic)");
  }
  ByteReader reader(bytes.data() + sizeof(kSnapshotMagic),
                    bytes.size() - sizeof(kSnapshotMagic));
  DPX_ASSIGN_OR_RETURN(const uint32_t version, reader.GetU32());
  if (version == 0 || version > kSnapshotFormatVersion) {
    // Forward-refusing: a newer format is rejected whole, never half-read.
    return Status::FailedPrecondition(
        "snapshot format version " + std::to_string(version) +
        " is not supported by this build (max " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (version_out != nullptr) *version_out = version;

  std::vector<Section> sections;
  while (!reader.AtEnd()) {
    DPX_ASSIGN_OR_RETURN(const uint32_t id, reader.GetU32());
    DPX_ASSIGN_OR_RETURN(const uint64_t length, reader.GetU64());
    DPX_ASSIGN_OR_RETURN(const uint32_t expected_crc, reader.GetU32());
    if (reader.remaining() < length) {
      return Status::IoError("snapshot truncated inside section " +
                             std::to_string(id) + " (need " +
                             std::to_string(length) + " bytes, have " +
                             std::to_string(reader.remaining()) + ")");
    }
    Section section;
    section.id = static_cast<SectionId>(id);
    DPX_ASSIGN_OR_RETURN(std::string payload, reader.GetBytes(length));
    const uint32_t actual_crc = Crc32(payload.data(), payload.size());
    if (actual_crc != expected_crc) {
      return Status::IoError("snapshot section " + std::to_string(id) +
                             " failed its CRC check (file corrupt)");
    }
    section.payload = std::move(payload);
    sections.push_back(std::move(section));
  }
  return sections;
}

}  // namespace dpclustx::snapshot
