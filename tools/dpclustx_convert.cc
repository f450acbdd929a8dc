// dpclustx_convert — offline CSV ↔ DPXCOL conversion and verification.
//
// The service's csv ingest path is gated (--max-csv-bytes) because parsing
// a full-scale file inside a serving process is the wrong place for that
// work. This tool is the right place: convert the CSV to a DPXCOL file once,
// then serve it with {"op":"load_dataset","source":"dpxcol"} — the server
// mmaps it in milliseconds instead of re-parsing gigabytes of text.
//
//   dpclustx_convert to-dpxcol IN.csv OUT.dpxcol [--capacity-rows N]
//                    [--max-csv-bytes N] [--verify]
//   dpclustx_convert to-csv IN.dpxcol OUT.csv
//   dpclustx_convert verify FILE.dpxcol
//
//   to-dpxcol   Parses the CSV (schema inferred: each column's domain is its
//               distinct values in order of first appearance) and writes a
//               DPXCOL file atomically. --capacity-rows reserves append
//               space so later append_rows commits in place; --verify
//               reopens the written file with a full data-CRC pass.
//   to-csv      Maps the DPXCOL file and writes its rows back out as labels.
//               to-dpxcol → to-csv round-trips a well-formed CSV byte for
//               byte (scripts/check.sh relies on this).
//   verify      Full O(data) integrity pass on an existing file: header
//               structure, per-column CRCs, max-code rescan. Run this on
//               any file of doubtful provenance before serving it
//               (DESIGN.md §13 trust model).
//
// Exit status: 0 on success, 1 on any conversion/verification error, 2 on
// usage errors.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/columnar_format.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "flags.h"
#include "obs/build_info.h"

namespace {

using dpclustx::ColumnarOpenOptions;
using dpclustx::ColumnarWriteOptions;
using dpclustx::CsvReadOptions;
using dpclustx::Dataset;
using dpclustx::MappedColumnar;
using dpclustx::Status;
using dpclustx::StatusCodeName;
using dpclustx::StatusOr;
using dpclustx::tools::ParseSizeFlag;

constexpr const char kUsage[] =
    "usage: dpclustx_convert <mode> [flags]\n"
    "\n"
    "  to-dpxcol IN.csv OUT.dpxcol   CSV -> DPXCOL (schema inferred)\n"
    "      --capacity-rows N         reserve space for appends (default:\n"
    "                                exactly the CSV's row count)\n"
    "      --max-csv-bytes N         refuse CSVs larger than N bytes\n"
    "                                (default 0 = no limit)\n"
    "      --verify                  reopen the written file with a full\n"
    "                                data-CRC verification pass\n"
    "  to-csv IN.dpxcol OUT.csv      DPXCOL -> CSV (cells as labels)\n"
    "  verify FILE.dpxcol            full integrity pass on an existing file\n"
    "  --version                     print build provenance and exit\n"
    "  --help                        print this table and exit\n";

int Fail(const Status& status, const std::string& context) {
  std::cerr << context << ": " << StatusCodeName(status.code()) << ": "
            << status.message() << "\n";
  return 1;
}

int ToDpxcol(const std::string& in, const std::string& out,
             size_t capacity_rows, size_t max_csv_bytes, bool verify) {
  CsvReadOptions read_options;
  read_options.max_bytes = max_csv_bytes;
  StatusOr<Dataset> dataset = dpclustx::ReadCsv(in, read_options);
  if (!dataset.ok()) return Fail(dataset.status(), "reading '" + in + "'");

  ColumnarWriteOptions write_options;
  write_options.capacity_rows = capacity_rows;
  const Status written =
      dpclustx::WriteColumnarFile(*dataset, out, write_options);
  if (!written.ok()) return Fail(written, "writing '" + out + "'");

  ColumnarOpenOptions open_options;
  open_options.verify_data = verify;
  StatusOr<std::shared_ptr<const MappedColumnar>> mapped =
      MappedColumnar::Open(out, open_options);
  if (!mapped.ok()) return Fail(mapped.status(), "reopening '" + out + "'");

  std::cerr << "wrote '" << out << "': " << (*mapped)->num_rows() << " rows x "
            << (*mapped)->schema().num_attributes() << " attributes, capacity "
            << (*mapped)->capacity_rows() << " rows, file uid "
            << (*mapped)->file_uid() << (verify ? ", data verified" : "")
            << "\n";
  return 0;
}

int ToCsv(const std::string& in, const std::string& out) {
  StatusOr<std::shared_ptr<const MappedColumnar>> mapped =
      MappedColumnar::Open(in);
  if (!mapped.ok()) return Fail(mapped.status(), "opening '" + in + "'");
  StatusOr<Dataset> dataset = Dataset::FromMapped(std::move(*mapped));
  if (!dataset.ok()) return Fail(dataset.status(), "mapping '" + in + "'");
  const Status written = dpclustx::WriteCsv(*dataset, out);
  if (!written.ok()) return Fail(written, "writing '" + out + "'");
  std::cerr << "wrote '" << out << "': " << dataset->num_rows() << " rows x "
            << dataset->num_attributes() << " attributes\n";
  return 0;
}

int Verify(const std::string& path) {
  // Open without verify_data first so a structural error is reported as
  // such, then run the full pass explicitly.
  StatusOr<std::shared_ptr<const MappedColumnar>> mapped =
      MappedColumnar::Open(path);
  if (!mapped.ok()) return Fail(mapped.status(), "opening '" + path + "'");
  const Status verified = (*mapped)->VerifyData();
  if (!verified.ok()) return Fail(verified, "verifying '" + path + "'");
  std::cerr << "'" << path << "' verified: " << (*mapped)->num_rows()
            << " rows x " << (*mapped)->schema().num_attributes()
            << " attributes, file uid " << (*mapped)->file_uid() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::vector<std::string> positional;
  size_t capacity_rows = 0;
  size_t max_csv_bytes = 0;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--version") == 0) {
      std::cout << dpclustx::obs::BuildInfoVersionLine()
                << ", dpxcol-format v" << dpclustx::kColumnarFormatVersion
                << "\n";
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
      continue;
    }
    if (ParseSizeFlag(argc, argv, &i, "--capacity-rows", &capacity_rows) ||
        ParseSizeFlag(argc, argv, &i, "--max-csv-bytes", &max_csv_bytes)) {
      continue;
    }
    if (argv[i][0] == '-') {
      std::cerr << "unknown flag '" << argv[i] << "'\n" << kUsage;
      return 2;
    }
    if (mode.empty()) {
      mode = argv[i];
    } else {
      positional.push_back(argv[i]);
    }
  }

  if (mode == "to-dpxcol" && positional.size() == 2) {
    return ToDpxcol(positional[0], positional[1], capacity_rows,
                    max_csv_bytes, verify);
  }
  if (mode == "to-csv" && positional.size() == 2) {
    return ToCsv(positional[0], positional[1]);
  }
  if (mode == "verify" && positional.size() == 1) {
    return Verify(positional[0]);
  }
  std::cerr << kUsage;
  return 2;
}
