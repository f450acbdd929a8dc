#include "data/columnar_format.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "common/logging.h"

namespace dpclustx {

namespace columnar_internal {

/// Refcounted fd + mmap span. Shared by every MappedColumnar snapshot of
/// one open file, so an in-place append does not remap and existing Dataset
/// views stay valid for as long as any of them is alive.
struct Mapping {
  UniqueFd fd;
  void* base = nullptr;
  size_t length = 0;
  bool writable = false;

  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() { if (base != nullptr) ::munmap(base, length); }

  const char* bytes() const { return static_cast<const char*>(base); }
};

}  // namespace columnar_internal

namespace {

using columnar_internal::Mapping;

// Column payloads start at 64-byte boundaries: cache-line aligned, and a
// multiple of every element width, so typed loads through the mapping are
// always aligned.
constexpr size_t kColumnAlignment = 64;
// magic(8) + version u32(4) + header length u64(8) + header crc u32(4).
constexpr size_t kFixedPrefixBytes = 24;

size_t AlignUp(size_t offset) {
  return (offset + kColumnAlignment - 1) / kColumnAlignment * kColumnAlignment;
}

struct ColumnMeta {
  ColumnWidth width = ColumnWidth::k32;
  uint64_t offset = 0;
  uint64_t max_code = 0;
  uint32_t crc = 0;
};

std::string EncodeHeader(uint64_t file_uid, WidthPolicy policy,
                         uint64_t num_rows, uint64_t capacity_rows,
                         const Schema& schema,
                         const std::vector<ColumnMeta>& columns) {
  ByteWriter w;
  w.PutU64(file_uid);
  w.PutU8(static_cast<uint8_t>(policy));
  w.PutU64(num_rows);
  w.PutU64(capacity_rows);
  w.PutU64(schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const Attribute& attr = schema.attribute(static_cast<AttrIndex>(a));
    w.PutString(attr.name());
    w.PutU64(attr.domain_size());
    for (size_t v = 0; v < attr.domain_size(); ++v) {
      w.PutString(attr.label(static_cast<ValueCode>(v)));
    }
  }
  w.PutU64(columns.size());
  for (const ColumnMeta& col : columns) {
    w.PutU8(static_cast<uint8_t>(col.width));
    w.PutU64(col.offset);
    w.PutU64(col.max_code);
    w.PutU32(col.crc);
  }
  return w.Take();
}

/// One column's payload as (head, tail) byte spans — head is the already
/// committed bytes (heap column or old mapping), tail the rows being
/// appended. max_code/crc cover head+tail and are computed by the caller.
struct ColumnSource {
  ColumnWidth width = ColumnWidth::k32;
  const void* head = nullptr;
  size_t head_bytes = 0;
  const void* tail = nullptr;
  size_t tail_bytes = 0;
  uint64_t max_code = 0;
  uint32_t crc = 0;
};

/// Writes a complete DPXCOL image to `path` atomically. Used by both the
/// fresh-write and the grow-on-append paths.
Status WriteImage(const std::string& path, uint64_t file_uid,
                  WidthPolicy policy, const Schema& schema, uint64_t num_rows,
                  uint64_t capacity_rows, const std::vector<ColumnSource>& cols) {
  DPX_CHECK_LE(num_rows, capacity_rows);
  // Lay out the column blocks. Every header field is fixed-width, so the
  // encoded length does not depend on the offsets — encode once with
  // placeholder metas to learn it, then fill in the real offsets.
  std::vector<ColumnMeta> metas(cols.size());
  const size_t header_len =
      EncodeHeader(file_uid, policy, num_rows, capacity_rows, schema, metas)
          .size();
  size_t offset = AlignUp(kFixedPrefixBytes + header_len);
  for (size_t a = 0; a < cols.size(); ++a) {
    metas[a].width = cols[a].width;
    metas[a].offset = offset;
    metas[a].max_code = cols[a].max_code;
    metas[a].crc = cols[a].crc;
    offset = AlignUp(offset + capacity_rows * ColumnWidthBytes(cols[a].width));
  }
  const size_t total_bytes = offset;
  const std::string header =
      EncodeHeader(file_uid, policy, num_rows, capacity_rows, schema, metas);
  DPX_CHECK_EQ(header.size(), header_len);

  ByteWriter prefix;
  prefix.PutBytes(kColumnarMagic, sizeof(kColumnarMagic));
  prefix.PutU32(kColumnarFormatVersion);
  prefix.PutU64(header.size());
  prefix.PutU32(Crc32(header.data(), header.size()));
  DPX_CHECK_EQ(prefix.buffer().size(), kFixedPrefixBytes);
  std::vector<FilePiece> pieces = {
      {0, prefix.buffer().data(), prefix.buffer().size()},
      {kFixedPrefixBytes, header.data(), header.size()}};
  for (size_t a = 0; a < cols.size(); ++a) {
    pieces.push_back({metas[a].offset, cols[a].head, cols[a].head_bytes});
    pieces.push_back({metas[a].offset + cols[a].head_bytes, cols[a].tail,
                      cols[a].tail_bytes});
  }
  // `total_bytes` reserves every column's full capacity; the space no piece
  // covers reads as zero.
  return WriteFileAtomic(path, total_bytes, pieces);
}

ColumnWidth ExpectedWidth(WidthPolicy policy, size_t domain_size) {
  return policy == WidthPolicy::kForce32 ? ColumnWidth::k32
                                         : NarrowestColumnWidth(domain_size);
}

/// Scans a view's codes for the maximum (0 for an empty view).
uint64_t MaxCode(const ColumnView& view) {
  uint64_t max_code = 0;
  VisitColumn(view, [&](const auto* codes) {
    for (size_t row = 0; row < view.size(); ++row) {
      max_code = std::max<uint64_t>(max_code, codes[row]);
    }
  });
  return max_code;
}

const void* ViewData(const ColumnView& view) {
  const void* data = nullptr;
  VisitColumn(view, [&](const auto* codes) { data = codes; });
  return data;
}

}  // namespace

// ---- write ----------------------------------------------------------------

uint64_t MintColumnarFileUid() {
  // Identity only (snapshots cross-check it against the path they saved);
  // not security-sensitive, but collisions across files should be unlikely.
  std::random_device rd;
  uint64_t uid = (uint64_t{rd()} << 32) ^ uint64_t{rd()};
  if (uid == 0) uid = 1;
  return uid;
}

size_t ColumnarCapacityWithHeadroom(size_t rows) {
  return std::max<size_t>(2 * rows, 1024);
}

Status WriteColumnarFile(const Dataset& dataset, const std::string& path,
                         const ColumnarWriteOptions& options) {
  DPX_RETURN_IF_ERROR(dataset.schema().Validate());
  const size_t rows = dataset.num_rows();
  const size_t capacity = std::max(options.capacity_rows, rows);
  std::vector<ColumnSource> cols(dataset.num_attributes());
  for (size_t a = 0; a < cols.size(); ++a) {
    const ColumnView view = dataset.column(static_cast<AttrIndex>(a));
    cols[a].width = view.width();
    cols[a].head = ViewData(view);
    cols[a].head_bytes = rows * ColumnWidthBytes(view.width());
    cols[a].max_code = MaxCode(view);
    cols[a].crc = Crc32(cols[a].head, cols[a].head_bytes);
  }
  const uint64_t file_uid =
      options.file_uid != 0 ? options.file_uid : MintColumnarFileUid();
  return WriteImage(path, file_uid, dataset.width_policy(),
                    dataset.schema(), rows, capacity, cols);
}

// ---- open -----------------------------------------------------------------

MappedColumnar::~MappedColumnar() = default;

bool MappedColumnar::writable() const { return mapping_->writable; }

ColumnView MappedColumnar::column(AttrIndex attr, size_t rows) const {
  DPX_CHECK_LT(attr, column_offsets_.size());
  DPX_CHECK_LE(rows, num_rows_);
  return ColumnView(mapping_->bytes() + column_offsets_[attr], rows,
                    column_widths_[attr]);
}

std::string MappedColumnar::EncodeHeaderPayload() const {
  std::vector<ColumnMeta> metas(column_offsets_.size());
  for (size_t a = 0; a < metas.size(); ++a) {
    metas[a] = {column_widths_[a], column_offsets_[a], column_max_codes_[a],
                column_crcs_[a]};
  }
  return EncodeHeader(file_uid_, width_policy_, num_rows_, capacity_rows_,
                      schema_, metas);
}

StatusOr<std::shared_ptr<const MappedColumnar>> MappedColumnar::Open(
    const std::string& path, const ColumnarOpenOptions& options) {
  auto mapping = std::make_shared<Mapping>();
  StatusOr<RegularFile> file = OpenRegularFile(path, O_RDWR);
  mapping->writable = file.ok();
  if (!file.ok()) file = OpenRegularFile(path);
  if (file.status().code() == StatusCode::kNotFound) {
    return Status::NotFound("no DPXCOL file at '" + path + "'");
  }
  DPX_RETURN_IF_ERROR(file.status());
  mapping->fd = std::move(file->fd);
  mapping->length = static_cast<size_t>(file->size);
  if (mapping->length < kFixedPrefixBytes) {
    return Status::IoError("'" + path + "' is truncated (" +
                           std::to_string(mapping->length) +
                           " bytes, need at least the file prefix)");
  }
  void* base = ::mmap(nullptr, mapping->length, PROT_READ, MAP_SHARED,
                      mapping->fd.get(), 0);
  if (base == MAP_FAILED) {
    return Status::IoError("cannot mmap '" + path + "': " +
                           std::strerror(errno));
  }
  mapping->base = base;
  const char* bytes = mapping->bytes();

  if (std::memcmp(bytes, kColumnarMagic, sizeof(kColumnarMagic)) != 0) {
    return Status::IoError("'" + path + "' is not a DPXCOL file (bad magic)");
  }
  ByteReader prefix(bytes + sizeof(kColumnarMagic),
                    kFixedPrefixBytes - sizeof(kColumnarMagic));
  DPX_ASSIGN_OR_RETURN(const uint32_t version, prefix.GetU32());
  DPX_ASSIGN_OR_RETURN(const uint64_t header_len, prefix.GetU64());
  DPX_ASSIGN_OR_RETURN(const uint32_t header_crc, prefix.GetU32());
  if (version > kColumnarFormatVersion) {
    return Status::FailedPrecondition(
        "'" + path + "' has DPXCOL format version " + std::to_string(version) +
        "; this build reads up to " + std::to_string(kColumnarFormatVersion));
  }
  if (version == 0) {
    return Status::IoError("'" + path + "' has format version 0");
  }
  if (header_len > mapping->length - kFixedPrefixBytes) {
    return Status::IoError("'" + path + "' header length " +
                           std::to_string(header_len) +
                           " exceeds the file size");
  }
  if (Crc32(bytes + kFixedPrefixBytes, header_len) != header_crc) {
    return Status::IoError("'" + path + "' header CRC mismatch");
  }

  auto out = std::shared_ptr<MappedColumnar>(new MappedColumnar());
  out->mapping_ = mapping;
  out->path_ = path;
  ByteReader r(bytes + kFixedPrefixBytes, header_len);
  DPX_ASSIGN_OR_RETURN(out->file_uid_, r.GetU64());
  DPX_ASSIGN_OR_RETURN(const uint8_t policy_tag, r.GetU8());
  if (policy_tag > static_cast<uint8_t>(WidthPolicy::kForce32)) {
    return Status::IoError("'" + path + "' has unknown width policy tag " +
                           std::to_string(policy_tag));
  }
  out->width_policy_ = static_cast<WidthPolicy>(policy_tag);
  DPX_ASSIGN_OR_RETURN(const uint64_t num_rows, r.GetU64());
  DPX_ASSIGN_OR_RETURN(const uint64_t capacity_rows, r.GetU64());
  if (num_rows > capacity_rows) {
    return Status::IoError("'" + path + "' has num_rows " +
                           std::to_string(num_rows) + " > capacity " +
                           std::to_string(capacity_rows));
  }
  out->num_rows_ = num_rows;
  out->capacity_rows_ = capacity_rows;

  DPX_ASSIGN_OR_RETURN(const uint64_t num_attrs, r.GetU64());
  std::vector<Attribute> attrs;
  attrs.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    DPX_ASSIGN_OR_RETURN(std::string name, r.GetString());
    DPX_ASSIGN_OR_RETURN(const uint64_t domain_size, r.GetU64());
    if (domain_size == 0) {
      return Status::IoError("'" + path + "' attribute '" + name +
                             "' has an empty domain");
    }
    std::vector<std::string> labels;
    labels.reserve(domain_size);
    for (uint64_t v = 0; v < domain_size; ++v) {
      DPX_ASSIGN_OR_RETURN(std::string label, r.GetString());
      labels.push_back(std::move(label));
    }
    attrs.emplace_back(std::move(name), std::move(labels));
  }
  out->schema_ = Schema(std::move(attrs));
  DPX_RETURN_IF_ERROR(out->schema_.Validate());

  DPX_ASSIGN_OR_RETURN(const uint64_t num_columns, r.GetU64());
  if (num_columns != num_attrs) {
    return Status::IoError("'" + path + "' has " + std::to_string(num_columns) +
                           " columns for " + std::to_string(num_attrs) +
                           " attributes");
  }
  out->column_widths_.reserve(num_columns);
  out->column_offsets_.reserve(num_columns);
  out->column_max_codes_.reserve(num_columns);
  out->column_crcs_.reserve(num_columns);
  for (uint64_t a = 0; a < num_columns; ++a) {
    DPX_ASSIGN_OR_RETURN(const uint8_t width_tag, r.GetU8());
    DPX_ASSIGN_OR_RETURN(const uint64_t offset, r.GetU64());
    DPX_ASSIGN_OR_RETURN(const uint64_t max_code, r.GetU64());
    DPX_ASSIGN_OR_RETURN(const uint32_t crc, r.GetU32());
    if (width_tag > static_cast<uint8_t>(ColumnWidth::k32)) {
      return Status::IoError("'" + path + "' column " + std::to_string(a) +
                             " has unknown width tag " +
                             std::to_string(width_tag));
    }
    const auto width = static_cast<ColumnWidth>(width_tag);
    const Attribute& attr = out->schema_.attribute(static_cast<AttrIndex>(a));
    // Structural invariants, all O(1): these are what let FromMapped skip
    // the O(data) domain scan that Dataset::FromColumns does.
    if (width != ExpectedWidth(out->width_policy_, attr.domain_size())) {
      return Status::IoError("'" + path + "' column '" + attr.name() +
                             "' width does not match the width policy");
    }
    if (offset % kColumnAlignment != 0) {
      return Status::IoError("'" + path + "' column '" + attr.name() +
                             "' offset is not " +
                             std::to_string(kColumnAlignment) +
                             "-byte aligned");
    }
    const uint64_t block_bytes = capacity_rows * ColumnWidthBytes(width);
    if (offset > mapping->length || block_bytes > mapping->length - offset) {
      return Status::IoError("'" + path + "' column '" + attr.name() +
                             "' extends past the end of the file");
    }
    if (num_rows > 0 && max_code >= attr.domain_size()) {
      return Status::IoError("'" + path + "' column '" + attr.name() +
                             "' max code " + std::to_string(max_code) +
                             " is outside its domain of " +
                             std::to_string(attr.domain_size()));
    }
    out->column_widths_.push_back(width);
    out->column_offsets_.push_back(offset);
    out->column_max_codes_.push_back(max_code);
    out->column_crcs_.push_back(crc);
  }
  if (!r.AtEnd()) {
    return Status::IoError("'" + path + "' has " +
                           std::to_string(r.remaining()) +
                           " unexpected trailing header bytes");
  }
  if (options.verify_data) DPX_RETURN_IF_ERROR(out->VerifyData());
  return std::shared_ptr<const MappedColumnar>(std::move(out));
}

Status MappedColumnar::VerifyData() const {
  for (size_t a = 0; a < column_offsets_.size(); ++a) {
    const Attribute& attr = schema_.attribute(static_cast<AttrIndex>(a));
    const char* data = mapping_->bytes() + column_offsets_[a];
    const size_t bytes = num_rows_ * ColumnWidthBytes(column_widths_[a]);
    if (Crc32(data, bytes) != column_crcs_[a]) {
      return Status::IoError("'" + path_ + "' column '" + attr.name() +
                             "' data CRC mismatch");
    }
    if (num_rows_ > 0 &&
        MaxCode(ColumnView(data, num_rows_, column_widths_[a])) !=
            column_max_codes_[a]) {
      return Status::IoError("'" + path_ + "' column '" + attr.name() +
                             "' max code does not match the header");
    }
  }
  return Status::OK();
}

// ---- append ---------------------------------------------------------------

StatusOr<std::shared_ptr<const MappedColumnar>> AppendRowsToColumnar(
    const std::shared_ptr<const MappedColumnar>& base,
    const std::vector<std::vector<ValueCode>>& rows) {
  if (base == nullptr) {
    return Status::InvalidArgument("null columnar handle");
  }
  if (!base->writable()) {
    return Status::FailedPrecondition("'" + base->path() +
                                      "' was opened read-only; appends need "
                                      "write permission on the file");
  }
  const Schema& schema = base->schema();
  const size_t attrs = schema.num_attributes();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != attrs) {
      return Status::InvalidArgument(
          "append row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) + " cells, schema has " +
          std::to_string(attrs) + " attributes");
    }
    for (size_t a = 0; a < attrs; ++a) {
      const Attribute& attr = schema.attribute(static_cast<AttrIndex>(a));
      if (rows[i][a] >= attr.domain_size()) {
        return Status::InvalidArgument(
            "append row " + std::to_string(i) + ": code " +
            std::to_string(rows[i][a]) + " out of domain for attribute '" +
            attr.name() + "'");
      }
    }
  }
  if (rows.empty()) return base;

  const size_t old_rows = base->num_rows();
  const size_t new_rows = old_rows + rows.size();

  // Encode the tail rows column-major at each column's width, tracking the
  // new max codes and extending the data CRCs (Crc32 streams via its seed).
  std::vector<std::string> tails(attrs);
  std::vector<uint64_t> max_codes(attrs);
  std::vector<uint32_t> crcs(attrs);
  for (size_t a = 0; a < attrs; ++a) {
    const ColumnWidth width = base->column_width(static_cast<AttrIndex>(a));
    const size_t elem = ColumnWidthBytes(width);
    std::string& tail = tails[a];
    tail.resize(rows.size() * elem);
    uint64_t max_code = old_rows > 0 ? base->column_max_codes_[a] : 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const ValueCode code = rows[i][a];
      max_code = std::max<uint64_t>(max_code, code);
      switch (width) {
        case ColumnWidth::k8: {
          const auto v = static_cast<uint8_t>(code);
          std::memcpy(tail.data() + i * elem, &v, elem);
          break;
        }
        case ColumnWidth::k16: {
          const auto v = static_cast<uint16_t>(code);
          std::memcpy(tail.data() + i * elem, &v, elem);
          break;
        }
        case ColumnWidth::k32: {
          std::memcpy(tail.data() + i * elem, &code, elem);
          break;
        }
      }
    }
    max_codes[a] = max_code;
    crcs[a] = Crc32(tail.data(), tail.size(), base->column_crcs_[a]);
  }

  if (new_rows <= base->capacity_rows()) {
    // In-place commit: tails into the reserved space, fdatasync, then the
    // re-encoded header (same byte length) as the commit point. A crash
    // before the header write leaves the old, still-valid file.
    const int fd = base->mapping_->fd.get();
    std::vector<FilePiece> pieces(attrs);
    for (size_t a = 0; a < attrs; ++a) {
      const size_t elem = ColumnWidthBytes(base->column_widths_[a]);
      pieces[a] = {base->column_offsets_[a] + old_rows * elem,
                   tails[a].data(), tails[a].size()};
    }
    DPX_RETURN_IF_ERROR(WritePieces(fd, pieces, base->path()));
    DPX_RETURN_IF_ERROR(SyncData(fd, base->path()));
    auto out = std::shared_ptr<MappedColumnar>(new MappedColumnar());
    out->mapping_ = base->mapping_;
    out->path_ = base->path_;
    out->file_uid_ = base->file_uid_;
    out->schema_ = base->schema_;
    out->width_policy_ = base->width_policy_;
    out->num_rows_ = new_rows;
    out->capacity_rows_ = base->capacity_rows_;
    out->column_widths_ = base->column_widths_;
    out->column_offsets_ = base->column_offsets_;
    out->column_max_codes_ = std::move(max_codes);
    out->column_crcs_ = std::move(crcs);
    const std::string header = out->EncodeHeaderPayload();
    ByteWriter commit;
    commit.PutU64(header.size());
    commit.PutU32(Crc32(header.data(), header.size()));
    commit.PutBytes(header.data(), header.size());
    DPX_RETURN_IF_ERROR(WritePieces(
        fd,
        {{sizeof(kColumnarMagic) + sizeof(uint32_t), commit.buffer().data(),
          commit.buffer().size()}},
        base->path()));
    DPX_RETURN_IF_ERROR(SyncData(fd, base->path()));
    return std::shared_ptr<const MappedColumnar>(std::move(out));
  }

  // Grow: rewrite to a new inode with headroom and rename over the path,
  // preserving the file_uid. `base` (and every Dataset viewing it) stays
  // valid on the old inode until the last reference drops.
  const size_t new_capacity = ColumnarCapacityWithHeadroom(new_rows);
  std::vector<ColumnSource> cols(attrs);
  for (size_t a = 0; a < attrs; ++a) {
    cols[a].width = base->column_widths_[a];
    cols[a].head = base->mapping_->bytes() + base->column_offsets_[a];
    cols[a].head_bytes = old_rows * ColumnWidthBytes(cols[a].width);
    cols[a].tail = tails[a].data();
    cols[a].tail_bytes = tails[a].size();
    cols[a].max_code = max_codes[a];
    cols[a].crc = crcs[a];
  }
  DPX_RETURN_IF_ERROR(WriteImage(base->path(), base->file_uid(),
                                 base->width_policy(), schema, new_rows,
                                 new_capacity, cols));
  return MappedColumnar::Open(base->path());
}

// ---- Dataset bridge -------------------------------------------------------

// Defined here rather than dataset.cc so the data library's core stays
// independent of the mmap machinery; dataset.h only forward-declares
// MappedColumnar.
StatusOr<Dataset> Dataset::FromMapped(
    std::shared_ptr<const MappedColumnar> mapped, size_t num_rows) {
  if (mapped == nullptr) {
    return Status::InvalidArgument("null columnar handle");
  }
  if (num_rows == kAllMappedRows) num_rows = mapped->num_rows();
  if (num_rows > mapped->num_rows()) {
    return Status::InvalidArgument(
        "requested " + std::to_string(num_rows) + " rows, '" + mapped->path() +
        "' has " + std::to_string(mapped->num_rows()) + " committed");
  }
  // Domain safety comes from the structural checks MappedColumnar::Open
  // already ran (max_code < domain per column) — no O(data) rescan here.
  Dataset dataset(mapped->schema(), mapped->width_policy());
  dataset.mapped_views_.reserve(dataset.num_attributes());
  for (size_t a = 0; a < dataset.num_attributes(); ++a) {
    dataset.mapped_views_.push_back(
        mapped->column(static_cast<AttrIndex>(a), num_rows));
  }
  dataset.mapped_ = std::move(mapped);
  dataset.num_rows_ = num_rows;
  return dataset;
}

}  // namespace dpclustx
