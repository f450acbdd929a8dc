#include "snapshot/snapshot_io.h"

#include <cstring>

#include "common/crc32.h"

namespace dpclustx::snapshot {

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
