// Binary wire primitives for the snapshot format.
//
// A snapshot file is:
//
//   magic   "DPXSNAP\n"                                   (8 bytes)
//   version u32 little-endian format version              (4 bytes)
//   section*                                              (repeated)
//
// and each section is:
//
//   id      u32   section identifier (SectionId)
//   length  u64   payload byte count
//   crc32   u32   CRC-32 of the payload bytes
//   payload length bytes
//
// All integers are little-endian regardless of host; doubles travel as the
// IEEE-754 bit pattern in a u64 so save→load→save is bit-for-bit. The
// loader is *forward-refusing*: a file whose format version is newer than
// this build understands is rejected outright (FailedPrecondition) rather
// than half-parsed — budget ledgers rebuilt from a misread file are worse
// than a refused restore. Unknown section ids within a supported version
// are skipped (they are CRC-framed, so skipping is safe), which is what
// lets a *newer* writer stay loadable by an older reader when it only
// appends sections. No checksum covers the version word itself: a changed
// version makes the decoders read a body under another version's layout,
// so they bound every count by the bytes left and refuse a section with
// bytes left over.
//
// ByteWriter/ByteReader (common/byte_io.h) are the primitive layer;
// SectionWriter and ParseSnapshotFile add the framing.

#ifndef DPCLUSTX_SNAPSHOT_SNAPSHOT_IO_H_
#define DPCLUSTX_SNAPSHOT_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_io.h"

namespace dpclustx::snapshot {

/// 8-byte file magic; the trailing newline catches ASCII-mode mangling the
/// way the PNG magic does.
inline constexpr char kSnapshotMagic[8] = {'D', 'P', 'X', 'S',
                                           'N', 'A', 'P', '\n'};

/// Current snapshot format version. Bump on any incompatible layout change;
/// the loader refuses anything newer (see file comment). History:
///   1  initial layout (PR 6)
///   2  DatasetState gains epoch + an optional by-reference DPXCOL source
///      (path, file uid, row count) instead of inline column bytes
///   3  each accountant (dataset cap, session) is its spent bits plus one
///      {label, count, ε} row per label, not a list of every charge
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// Section identifiers. Values are part of the on-disk format — append new
/// ones, never renumber.
enum class SectionId : uint32_t {
  kMeta = 1,      // counts + provenance
  kDatasets = 2,  // registry entries: schema, DPXCOL file reference, caps,
                  // clusterings (inline columns: read from v1–v3, never
                  // written)
  kSessions = 3,  // per-tenant budget ledgers
  kCache = 4,     // explanation/hist release cache, LRU order
  kAudit = 5,     // audit cursor + exact totals + retained tail
};

/// Assembles a whole snapshot file: magic + version header, then one
/// CRC-framed section per AddSection call.
class SectionWriter {
 public:
  explicit SectionWriter(uint32_t version = kSnapshotFormatVersion);

  void AddSection(SectionId id, const std::string& payload);

  /// The complete file image.
  std::string Take() { return std::move(file_); }

 private:
  std::string file_;
};

/// One parsed section.
struct Section {
  SectionId id;
  std::string payload;  // CRC-verified
};

/// Parses and verifies a snapshot file image: checks magic, refuses
/// versions newer than kSnapshotFormatVersion, walks every section frame,
/// and verifies each payload CRC. Returns the sections in file order.
StatusOr<std::vector<Section>> ParseSnapshotFile(const std::string& bytes,
                                                 uint32_t* version_out);

}  // namespace dpclustx::snapshot

#endif  // DPCLUSTX_SNAPSHOT_SNAPSHOT_IO_H_
