// DPXCOL — the on-disk columnar dataset format, mmap-opened zero-copy.
//
// A DPXCOL file is the narrow-width column layout of data/column.h written
// to disk verbatim, so a Dataset can map it read-only and hand the existing
// width-dispatched kernels pointers straight into the page cache:
//
//   magic   "DPXCOL\n\0"                                   (8 bytes)
//   version u32 little-endian format version               (4 bytes)
//   hlen    u64 header payload byte count                  (8 bytes)
//   hcrc    u32 CRC-32 of the header payload               (4 bytes)
//   header  hlen bytes (ByteWriter-encoded, see below)
//   padding zero bytes to the first 64-byte boundary
//   column* one raw code array per attribute, each starting at a 64-byte
//           aligned absolute offset recorded in the header
//
// The header payload is:
//
//   u64 file_uid        random identity minted at creation, preserved by
//                       appends and grows — snapshots fingerprint the file
//                       with (path, file_uid, rows) instead of inlining rows
//   u8  width_policy    WidthPolicy the columns were laid out under
//   u64 num_rows        committed rows (every column has exactly this many)
//   u64 capacity_rows   rows of reserved space per column (>= num_rows)
//   schema              u64 attr count, then per attribute: name string,
//                       u64 domain size, one label string per domain value
//   u64 num_columns     == attr count (explicit for structural checking)
//   per column:         u8 width tag, u64 absolute file offset,
//                       u64 max code present in the committed rows,
//                       u32 CRC-32 of the committed rows' bytes
//
// Every header field is fixed-width and the schema never changes after
// creation, so the encoded header length is a constant of the file. That is
// the commit protocol for appends: write the new tail bytes into each
// column's reserved space first, then pwrite the re-encoded header (same
// length, new num_rows/max_code/CRC) over the old one. A crash between the
// two leaves the old header — which still describes a fully valid file.
//
// Trust model (DESIGN.md §13): opening verifies magic/version/header CRC
// and every structural invariant (offsets in bounds, widths matching the
// policy, max codes inside the domains) in O(header) time — that is what
// makes a 2.46M×68 file open in milliseconds. The column payloads are
// checksummed on write but only re-verified under
// ColumnarOpenOptions::verify_data (or VerifyData()), because a full scan
// is exactly the cost mmap exists to avoid. A DPXCOL file is a trusted
// local artifact, like a snapshot; run `dpclustx_convert --verify` on
// anything of doubtful provenance before serving it.
//
// The loader is forward-refusing like the snapshot loader: a newer format
// version is FailedPrecondition, any structural or CRC mismatch is IoError.
//
// Concurrency: any number of processes may map one file for reading (the
// pages are shared, which is the point). Appends must be serialized by the
// owner — one writer per file, no writer in another process. Readers that
// opened before an append keep seeing their row count (MappedColumnar is an
// immutable row-count snapshot over a shared mapping); a grow that outruns
// capacity rewrites to a new inode and renames, so old mappings stay valid.

#ifndef DPCLUSTX_DATA_COLUMNAR_FORMAT_H_
#define DPCLUSTX_DATA_COLUMNAR_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/column.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace dpclustx {

/// 8-byte file magic; trailing newline catches ASCII-mode mangling.
inline constexpr char kColumnarMagic[8] = {'D', 'P', 'X', 'C',
                                           'O', 'L', '\n', '\0'};

/// Current DPXCOL format version; the loader refuses anything newer.
inline constexpr uint32_t kColumnarFormatVersion = 1;

struct ColumnarWriteOptions {
  /// Reserved rows per column. 0 means exactly the dataset's row count;
  /// anything larger pre-allocates space so appends can commit in place
  /// without rewriting the file.
  size_t capacity_rows = 0;
  /// The new file's identity; 0 mints one. A writer that names the file
  /// after its uid (a snapshot's row files) mints it first.
  uint64_t file_uid = 0;
};

/// A fresh random, nonzero file uid.
uint64_t MintColumnarFileUid();

/// The capacity a DPXCOL file holding `rows` rows is given when it needs
/// room for appends: twice the rows, and at least 1,024. An append that
/// outgrows a file rewrites it at this capacity, and a snapshot's row file
/// is written at it, so the appends after either commit in place. The
/// room is a sparse ftruncate: no bytes are written for it.
size_t ColumnarCapacityWithHeadroom(size_t rows);

struct ColumnarOpenOptions {
  /// Re-verify every column's data CRC and re-scan max codes (O(data)).
  /// Off by default — see the trust model in the file comment.
  bool verify_data = false;
};

namespace columnar_internal {
struct Mapping;  // refcounted fd + mmap span, shared across append snapshots
}  // namespace columnar_internal

/// An immutable view of one DPXCOL file at a fixed committed row count.
/// Appends return a new MappedColumnar (sharing the mapping when capacity
/// sufficed); existing handles never change underneath their readers.
class MappedColumnar {
 public:
  /// Maps `path` read-only and validates it (see trust model above). The
  /// file is also opened read-write if permissions allow, which is what
  /// makes AppendRowsToColumnar possible on the returned handle.
  static StatusOr<std::shared_ptr<const MappedColumnar>> Open(
      const std::string& path, const ColumnarOpenOptions& options = {});

  MappedColumnar(const MappedColumnar&) = delete;
  MappedColumnar& operator=(const MappedColumnar&) = delete;
  ~MappedColumnar();

  const std::string& path() const { return path_; }
  uint64_t file_uid() const { return file_uid_; }
  const Schema& schema() const { return schema_; }
  WidthPolicy width_policy() const { return width_policy_; }
  size_t num_rows() const { return num_rows_; }
  size_t capacity_rows() const { return capacity_rows_; }
  /// True when the underlying fd is writable (appends possible).
  bool writable() const;

  ColumnWidth column_width(AttrIndex attr) const {
    return column_widths_[attr];
  }

  /// Read-only span over the first `rows` committed codes of one column,
  /// pointing directly into the mapping. `rows` must be <= num_rows().
  ColumnView column(AttrIndex attr, size_t rows) const;

  /// Full O(data) integrity pass: per-column CRC over the committed rows
  /// plus a max-code rescan against the header's recorded values.
  Status VerifyData() const;

 private:
  friend StatusOr<std::shared_ptr<const MappedColumnar>> AppendRowsToColumnar(
      const std::shared_ptr<const MappedColumnar>& base,
      const std::vector<std::vector<ValueCode>>& rows);

  MappedColumnar() = default;

  /// Re-encodes the header payload from current fields (constant length).
  std::string EncodeHeaderPayload() const;

  std::shared_ptr<columnar_internal::Mapping> mapping_;
  std::string path_;
  uint64_t file_uid_ = 0;
  Schema schema_;
  WidthPolicy width_policy_ = WidthPolicy::kAdaptive;
  size_t num_rows_ = 0;
  size_t capacity_rows_ = 0;
  std::vector<ColumnWidth> column_widths_;
  std::vector<uint64_t> column_offsets_;    // absolute file offsets
  std::vector<uint64_t> column_max_codes_;  // over the committed rows
  std::vector<uint32_t> column_crcs_;       // over the committed rows' bytes
};

/// Writes `dataset` to `path` as a DPXCOL file (atomically: temp file +
/// rename), under `options.file_uid` or a freshly minted one. The dataset
/// must be heap-backed or mapped — either works; bytes are copied out
/// column by column.
Status WriteColumnarFile(const Dataset& dataset, const std::string& path,
                         const ColumnarWriteOptions& options = {});

/// Appends `rows` (validated against the schema) to the file behind `base`
/// and returns a new handle at the extended row count. If the reserved
/// capacity suffices, the tail is pwritten into place and the header
/// re-committed — the returned handle shares `base`'s mapping. Otherwise
/// the file is rewritten to a new inode at ColumnarCapacityWithHeadroom of
/// the new row count and renamed
/// over `path`; `base` stays valid on the old inode. The caller must
/// serialize appends to one file.
StatusOr<std::shared_ptr<const MappedColumnar>> AppendRowsToColumnar(
    const std::shared_ptr<const MappedColumnar>& base,
    const std::vector<std::vector<ValueCode>>& rows);

}  // namespace dpclustx

#endif  // DPCLUSTX_DATA_COLUMNAR_FORMAT_H_
