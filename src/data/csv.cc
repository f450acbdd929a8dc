#include "data/csv.h"

#include <fstream>
#include <unordered_map>

#include "common/file_util.h"
#include "common/logging.h"

namespace dpclustx {

namespace csv_internal {

Status StreamParser::StrayError(char c) const {
  return Status::IoError(
      "stray character '" + std::string(1, c) +
      "' after closed quoted field at row " + std::to_string(row_number()) +
      ", column " + std::to_string(column_) +
      " (expected ',', end of row, or end of input)");
}

Status StreamParser::EndRow() {
  row_.push_back(std::move(field_));
  field_.clear();
  field_started_ = false;
  state_ = State::kFieldStart;
  Status status = on_row_(std::move(row_));
  row_.clear();
  ++rows_emitted_;
  column_ = 0;
  return status;
}

Status StreamParser::Consume(char c) {
  if (pending_cr_) {
    pending_cr_ = false;
    if (c == '\n') return EndRow();  // CRLF
    // A bare CR not followed by LF is field data, not a terminator — the
    // old parser silently deleted it mid-field. It is never legal right
    // after a closed quoted field, though.
    if (state_ == State::kQuoteClosed) {
      ++column_;
      return StrayError('\r');
    }
    field_ += '\r';
    field_started_ = true;
    state_ = State::kUnquoted;
    // fall through and process c normally
  }
  ++column_;
  switch (state_) {
    case State::kQuoted:
      if (c == '"') {
        state_ = State::kQuoteInQuoted;
      } else {
        field_ += c;  // anything goes inside quotes, CR/LF included
      }
      return Status::OK();
    case State::kQuoteInQuoted:
      if (c == '"') {
        field_ += '"';  // doubled quote = literal quote
        state_ = State::kQuoted;
        return Status::OK();
      }
      state_ = State::kQuoteClosed;
      break;  // reprocess c below in the closed-quote state
    default:
      break;
  }
  // state_ is kFieldStart, kUnquoted, or kQuoteClosed.
  switch (c) {
    case ',':
      row_.push_back(std::move(field_));
      field_.clear();
      field_started_ = false;
      state_ = State::kFieldStart;
      return Status::OK();
    case '\n':
      return EndRow();
    case '\r':
      pending_cr_ = true;
      return Status::OK();
    case '"':
      if (state_ == State::kFieldStart) {
        state_ = State::kQuoted;
        field_started_ = true;
        return Status::OK();
      }
      if (state_ == State::kQuoteClosed) return StrayError(c);
      field_ += c;  // quote inside an unquoted field: kept literally
      return Status::OK();
    default:
      if (state_ == State::kQuoteClosed) return StrayError(c);
      field_ += c;
      field_started_ = true;
      state_ = State::kUnquoted;
      return Status::OK();
  }
}

Status StreamParser::Feed(const char* data, size_t size) {
  DPX_CHECK(!finished_) << "Feed after Finish";
  for (size_t i = 0; i < size; ++i) {
    DPX_RETURN_IF_ERROR(Consume(data[i]));
  }
  return Status::OK();
}

Status StreamParser::Finish() {
  DPX_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  if (state_ == State::kQuoted) {
    return Status::IoError("unterminated quoted field at end of input (row " +
                           std::to_string(row_number()) + ")");
  }
  if (state_ == State::kQuoteInQuoted) state_ = State::kQuoteClosed;
  if (pending_cr_) {
    pending_cr_ = false;
    return EndRow();  // torn final CRLF: treat the CR as the row end
  }
  if (state_ == State::kQuoteClosed || field_started_ || !field_.empty() ||
      !row_.empty()) {
    return EndRow();  // final line without trailing newline
  }
  return Status::OK();
}

StatusOr<std::vector<std::vector<std::string>>> ParseDocument(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  StreamParser parser([&](std::vector<std::string>&& row) {
    rows.push_back(std::move(row));
    return Status::OK();
  });
  DPX_RETURN_IF_ERROR(parser.Feed(text.data(), text.size()));
  DPX_RETURN_IF_ERROR(parser.Finish());
  return rows;
}

}  // namespace csv_internal

namespace {

std::string EscapeField(const std::string& s) {
  const bool needs_quotes = s.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

/// Opens `path` under the regular-file rule, applies the max-bytes gate,
/// and streams its contents through `parser` chunk by chunk (Feed* +
/// Finish).
Status StreamFileThroughParser(const std::string& path,
                               const CsvReadOptions& options,
                               csv_internal::StreamParser& parser) {
  StatusOr<RegularFile> file = OpenRegularFile(path);
  if (!file.ok()) return Status::IoError(file.status().message());
  if (options.max_bytes != 0 && file->size > options.max_bytes) {
    return Status::IoError(
        "'" + path + "' is " + std::to_string(file->size) +
        " bytes, over the " + std::to_string(options.max_bytes) +
        "-byte CSV ingest limit; raise the limit or convert to DPXCOL "
        "(dpclustx_convert) instead of parsing CSV at this scale");
  }
  DPX_RETURN_IF_ERROR(ReadChunks(
      *file, path, [&parser](const char* data, size_t size) {
        return parser.Feed(data, size);
      }));
  return parser.Finish();
}

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  const Schema& schema = dataset.schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (a > 0) out << ',';
    out << EscapeField(schema.attribute(static_cast<AttrIndex>(a)).name());
  }
  out << '\n';
  for (size_t row = 0; row < dataset.num_rows(); ++row) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const auto attr_index = static_cast<AttrIndex>(a);
      if (a > 0) out << ',';
      out << EscapeField(schema.attribute(attr_index)
                             .label(dataset.at(row, attr_index)));
    }
    out << '\n';
  }
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

StatusOr<Dataset> ReadCsv(const std::string& path,
                          const CsvReadOptions& options) {
  // Pass 1: stream the file once to collect the header and each column's
  // distinct values in first-appearance order (the inferred domain), plus
  // the row count for the exact Reserve in pass 2.
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> domains;
  std::vector<std::unordered_map<std::string, ValueCode>> code_of;
  size_t data_rows = 0;
  {
    csv_internal::StreamParser parser([&](std::vector<std::string>&& row) {
      if (header.empty()) {
        header = std::move(row);
        domains.resize(header.size());
        code_of.resize(header.size());
        return Status::OK();
      }
      if (row.size() != header.size()) {
        return Status::IoError("row " + std::to_string(data_rows + 1) +
                               " has " + std::to_string(row.size()) +
                               " fields, header has " +
                               std::to_string(header.size()));
      }
      for (size_t a = 0; a < header.size(); ++a) {
        auto [it, inserted] = code_of[a].try_emplace(
            std::move(row[a]), static_cast<ValueCode>(domains[a].size()));
        if (inserted) domains[a].push_back(it->first);
      }
      ++data_rows;
      return Status::OK();
    });
    DPX_RETURN_IF_ERROR(StreamFileThroughParser(path, options, parser));
  }
  if (header.empty()) return Status::IoError("'" + path + "' is empty");

  std::vector<Attribute> attrs;
  attrs.reserve(header.size());
  for (size_t a = 0; a < header.size(); ++a) {
    if (domains[a].empty()) domains[a].push_back("<empty>");
    attrs.emplace_back(header[a], domains[a]);
  }
  Schema schema(std::move(attrs));
  DPX_RETURN_IF_ERROR(schema.Validate());

  // Pass 2: stream again and encode rows straight into the dataset — no
  // whole-file buffer, no materialized row-of-strings table.
  Dataset dataset(std::move(schema));
  dataset.Reserve(data_rows);
  std::vector<ValueCode> row_codes(header.size());
  bool saw_header = false;
  csv_internal::StreamParser parser([&](std::vector<std::string>&& row) {
    if (!saw_header) {
      saw_header = true;
      return Status::OK();
    }
    if (row.size() != header.size()) {
      return Status::IoError("'" + path + "' changed between passes");
    }
    for (size_t a = 0; a < header.size(); ++a) {
      const auto it = code_of[a].find(row[a]);
      if (it == code_of[a].end()) {
        return Status::IoError("'" + path + "' changed between passes");
      }
      row_codes[a] = it->second;
    }
    dataset.AppendRowUnchecked(row_codes);
    return Status::OK();
  });
  DPX_RETURN_IF_ERROR(StreamFileThroughParser(path, options, parser));
  if (dataset.num_rows() != data_rows) {
    return Status::IoError("'" + path + "' changed between passes");
  }
  return dataset;
}

StatusOr<Dataset> ReadCsvWithSchema(const std::string& path,
                                    const Schema& schema,
                                    const CsvReadOptions& options) {
  DPX_RETURN_IF_ERROR(schema.Validate());
  // Pre-index each domain for O(1) lookups.
  std::vector<std::unordered_map<std::string, ValueCode>> code_of(
      schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const Attribute& attr = schema.attribute(static_cast<AttrIndex>(a));
    for (size_t v = 0; v < attr.domain_size(); ++v) {
      code_of[a][attr.label(static_cast<ValueCode>(v))] =
          static_cast<ValueCode>(v);
    }
  }

  // One streaming pass: the schema is known up front, so rows encode as
  // they arrive.
  Dataset dataset(schema);
  bool saw_header = false;
  size_t data_rows = 0;
  std::vector<ValueCode> row_codes(schema.num_attributes());
  csv_internal::StreamParser parser([&](std::vector<std::string>&& row) {
    if (!saw_header) {
      saw_header = true;
      if (row.size() != schema.num_attributes()) {
        return Status::InvalidArgument(
            "header has " + std::to_string(row.size()) +
            " columns, schema expects " +
            std::to_string(schema.num_attributes()));
      }
      for (size_t a = 0; a < row.size(); ++a) {
        const Attribute& attr = schema.attribute(static_cast<AttrIndex>(a));
        if (row[a] != attr.name()) {
          return Status::InvalidArgument("column " + std::to_string(a) +
                                         " is '" + row[a] +
                                         "', schema expects '" + attr.name() +
                                         "'");
        }
      }
      return Status::OK();
    }
    ++data_rows;
    if (row.size() != schema.num_attributes()) {
      return Status::IoError("row " + std::to_string(data_rows) +
                             " has wrong field count");
    }
    for (size_t a = 0; a < row.size(); ++a) {
      const auto it = code_of[a].find(row[a]);
      if (it == code_of[a].end()) {
        return Status::InvalidArgument(
            "row " + std::to_string(data_rows) + ": value '" + row[a] +
            "' not in domain of '" +
            schema.attribute(static_cast<AttrIndex>(a)).name() + "'");
      }
      row_codes[a] = it->second;
    }
    dataset.AppendRowUnchecked(row_codes);
    return Status::OK();
  });
  DPX_RETURN_IF_ERROR(StreamFileThroughParser(path, options, parser));
  if (!saw_header) return Status::IoError("'" + path + "' is empty");
  return dataset;
}

}  // namespace dpclustx
