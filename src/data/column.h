// Adaptive narrow column storage for categorical codes.
//
// Every DPClustX hot path — histogram builds, the fused group-count sweep,
// embedding, Hamming assignment — is a bandwidth-bound scan over one code
// vector per attribute. Census-like domains are 2–39 values, yet a
// `ValueCode` is 4 bytes, so a uint32 column moves 4× the bytes the data
// needs. A NarrowColumn stores codes in the narrowest unsigned width that
// fits the attribute's domain (uint8/uint16/uint32); ColumnView is the
// tagged read-only span hot kernels dispatch on, once per column, via
// VisitColumn. Width is a pure function of the schema's domain size (never
// of the data), so the choice is data-independent and leaks nothing.
//
// Codes are exact integers in every width, so all downstream results
// (histograms, labels, explanations) are bitwise-identical across widths;
// tests/dataset_layout_test enforces this at the 8/16/32 boundaries.

#ifndef DPCLUSTX_DATA_COLUMN_H_
#define DPCLUSTX_DATA_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "data/schema.h"

namespace dpclustx {

/// Physical element width of one stored column.
enum class ColumnWidth : uint8_t { k8, k16, k32 };

inline size_t ColumnWidthBytes(ColumnWidth width) {
  switch (width) {
    case ColumnWidth::k8:
      return 1;
    case ColumnWidth::k16:
      return 2;
    case ColumnWidth::k32:
      return 4;
  }
  return 4;
}

/// Narrowest width whose code range [0, 2^bits) covers a domain of
/// `domain_size` values. Depends only on the schema, never on the data.
inline ColumnWidth NarrowestColumnWidth(size_t domain_size) {
  if (domain_size <= (size_t{1} << 8)) return ColumnWidth::k8;
  if (domain_size <= (size_t{1} << 16)) return ColumnWidth::k16;
  return ColumnWidth::k32;
}

/// How a Dataset picks column widths. kForce32 pins every column to the
/// legacy 4-byte layout; it exists so equivalence tests and benchmarks can
/// compare the narrow path against the pre-narrowing storage bit-for-bit.
enum class WidthPolicy : uint8_t { kAdaptive, kForce32 };

/// Read-only tagged span over one column's codes. Cheap to copy; does not
/// own the storage. Hot kernels should dispatch once per column via
/// VisitColumn and run a width-typed loop; operator[] re-dispatches per
/// element and is for cold paths only.
class ColumnView {
 public:
  ColumnView() : data_(nullptr), size_(0), width_(ColumnWidth::k32) {}
  ColumnView(const void* data, size_t size, ColumnWidth width)
      : data_(data), size_(size), width_(width) {}

  size_t size() const { return size_; }
  ColumnWidth width() const { return width_; }

  const uint8_t* u8() const {
    DPX_CHECK(width_ == ColumnWidth::k8);
    return static_cast<const uint8_t*>(data_);
  }
  const uint16_t* u16() const {
    DPX_CHECK(width_ == ColumnWidth::k16);
    return static_cast<const uint16_t*>(data_);
  }
  const uint32_t* u32() const {
    DPX_CHECK(width_ == ColumnWidth::k32);
    return static_cast<const uint32_t*>(data_);
  }

  /// Width-dispatched element read (cold paths; see class comment).
  ValueCode operator[](size_t row) const {
    switch (width_) {
      case ColumnWidth::k8:
        return static_cast<const uint8_t*>(data_)[row];
      case ColumnWidth::k16:
        return static_cast<const uint16_t*>(data_)[row];
      case ColumnWidth::k32:
        break;
    }
    return static_cast<const uint32_t*>(data_)[row];
  }

 private:
  const void* data_;
  size_t size_;
  ColumnWidth width_;
};

/// Calls fn with the column's typed base pointer (const uint8_t*/uint16_t*/
/// uint32_t*), so the compiler sees one contiguous, width-monomorphic loop
/// per instantiation. The canonical hot-kernel shape:
///
///   VisitColumn(view, [&](const auto* codes) {
///     for (size_t row = begin; row < end; ++row) Use(codes[row]);
///   });
template <typename Fn>
decltype(auto) VisitColumn(const ColumnView& view, Fn&& fn) {
  switch (view.width()) {
    case ColumnWidth::k8:
      return fn(view.u8());
    case ColumnWidth::k16:
      return fn(view.u16());
    case ColumnWidth::k32:
      break;
  }
  return fn(view.u32());
}

/// Owning code vector in one of the three physical widths. Exactly one of
/// the backing vectors is in use, chosen at construction; push_back and
/// operator[] dispatch on the tag. Appends of codes that do not fit the
/// width trip a DPX_CHECK (callers validate codes against the domain first,
/// and the width always covers the domain).
class NarrowColumn {
 public:
  NarrowColumn() = default;
  explicit NarrowColumn(ColumnWidth width) : width_(width) {}

  ColumnWidth width() const { return width_; }

  size_t size() const {
    switch (width_) {
      case ColumnWidth::k8:
        return v8_.size();
      case ColumnWidth::k16:
        return v16_.size();
      case ColumnWidth::k32:
        break;
    }
    return v32_.size();
  }

  void reserve(size_t n) {
    switch (width_) {
      case ColumnWidth::k8:
        v8_.reserve(n);
        return;
      case ColumnWidth::k16:
        v16_.reserve(n);
        return;
      case ColumnWidth::k32:
        v32_.reserve(n);
        return;
    }
  }

  void push_back(ValueCode code) {
    switch (width_) {
      case ColumnWidth::k8:
        DPX_CHECK_LE(code, 0xffu);
        v8_.push_back(static_cast<uint8_t>(code));
        return;
      case ColumnWidth::k16:
        DPX_CHECK_LE(code, 0xffffu);
        v16_.push_back(static_cast<uint16_t>(code));
        return;
      case ColumnWidth::k32:
        v32_.push_back(code);
        return;
    }
  }

  ValueCode operator[](size_t row) const {
    switch (width_) {
      case ColumnWidth::k8:
        return v8_[row];
      case ColumnWidth::k16:
        return v16_[row];
      case ColumnWidth::k32:
        break;
    }
    return v32_[row];
  }

  ColumnView view() const {
    switch (width_) {
      case ColumnWidth::k8:
        return ColumnView(v8_.data(), v8_.size(), width_);
      case ColumnWidth::k16:
        return ColumnView(v16_.data(), v16_.size(), width_);
      case ColumnWidth::k32:
        break;
    }
    return ColumnView(v32_.data(), v32_.size(), width_);
  }

  /// Replaces this column's contents from raw host-order bytes at `width`
  /// (an inline column of an older snapshot image). `size_bytes` must be a
  /// multiple of the element width; codes are NOT domain-validated here
  /// (Dataset::FromColumns does that once per column against the schema).
  void AssignRaw(ColumnWidth width, const void* data, size_t size_bytes) {
    const size_t elem = ColumnWidthBytes(width);
    DPX_CHECK(size_bytes % elem == 0) << "raw column bytes not a multiple of "
                                      << elem;
    const size_t n = size_bytes / elem;
    width_ = width;
    v8_.clear();
    v16_.clear();
    v32_.clear();
    // memcpy, not typed assign: the source is typically a std::string
    // payload with no alignment guarantee for the wider widths.
    switch (width_) {
      case ColumnWidth::k8:
        v8_.resize(n);
        if (n != 0) std::memcpy(v8_.data(), data, size_bytes);
        return;
      case ColumnWidth::k16:
        v16_.resize(n);
        if (n != 0) std::memcpy(v16_.data(), data, size_bytes);
        return;
      case ColumnWidth::k32:
        v32_.resize(n);
        if (n != 0) std::memcpy(v32_.data(), data, size_bytes);
        return;
    }
  }

 private:
  ColumnWidth width_ = ColumnWidth::k32;
  std::vector<uint8_t> v8_;
  std::vector<uint16_t> v16_;
  std::vector<uint32_t> v32_;
};

}  // namespace dpclustx

#endif  // DPCLUSTX_DATA_COLUMN_H_
