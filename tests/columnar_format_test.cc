// DPXCOL on-disk format: round trips, append commit paths, and the
// refusal matrix (corruption, truncation, newer versions) — mirroring
// snapshot_test's coverage of the other durable format.

#include "data/columnar_format.h"

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/schema.h"

namespace dpclustx {
namespace {

class ColumnarFormatTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/dpclustx_dpxcol_" + name;
  }

  /// A small dataset whose domains exercise both the 8-bit and 16-bit
  /// column widths under the adaptive policy.
  Dataset MakeDataset(size_t rows) {
    std::vector<std::string> small = {"a", "b", "c"};
    std::vector<std::string> wide;
    for (size_t v = 0; v < 300; ++v) wide.push_back("v" + std::to_string(v));
    Dataset dataset(Schema({Attribute("small", small),
                            Attribute("wide", std::move(wide))}));
    for (size_t r = 0; r < rows; ++r) {
      dataset.AppendRowUnchecked({static_cast<ValueCode>(r % 3),
                                  static_cast<ValueCode>((r * 7) % 300)});
    }
    return dataset;
  }

  std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  void ExpectSameRows(const Dataset& a, const Dataset& b) {
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_attributes(), b.num_attributes());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.Row(r), b.Row(r)) << "row " << r;
    }
  }
};

TEST_F(ColumnarFormatTest, RoundTripPreservesRowsSchemaAndWidths) {
  const Dataset original = MakeDataset(100);
  const std::string path = TempPath("roundtrip.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(original, path).ok());

  const auto mapped = MappedColumnar::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ((*mapped)->num_rows(), 100u);
  EXPECT_EQ((*mapped)->capacity_rows(), 100u);
  EXPECT_NE((*mapped)->file_uid(), 0u);
  EXPECT_EQ((*mapped)->column_width(0), ColumnWidth::k8);
  EXPECT_EQ((*mapped)->column_width(1), ColumnWidth::k16);
  EXPECT_TRUE((*mapped)->VerifyData().ok());

  const auto dataset = Dataset::FromMapped(*mapped);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_TRUE(dataset->is_mapped());
  EXPECT_EQ(dataset->schema().attribute(1).label(7), "v7");
  ExpectSameRows(original, *dataset);
}

TEST_F(ColumnarFormatTest, FromMappedClampsToAPrefix) {
  const std::string path = TempPath("prefix.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(10), path).ok());
  const auto mapped = MappedColumnar::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  const auto prefix = Dataset::FromMapped(*mapped, 4);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  EXPECT_EQ(prefix->num_rows(), 4u);

  EXPECT_EQ(Dataset::FromMapped(*mapped, 11).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ColumnarFormatTest, MappedDatasetRefusesAppendRow) {
  const std::string path = TempPath("immutable.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(5), path).ok());
  const auto mapped = MappedColumnar::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto dataset = Dataset::FromMapped(*mapped);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->AppendRow({0, 0}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ColumnarFormatTest, OpenRefusesMissingFile) {
  EXPECT_EQ(MappedColumnar::Open(TempPath("absent.dpxcol")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ColumnarFormatTest, OpenRefusesNonRegularFiles) {
  // A device, a FIFO (whose open would block) and a directory are refused
  // by name before anything is mapped.
  const std::string fifo = TempPath("open.fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path :
       {std::string("/dev/zero"), fifo, testing::TempDir()}) {
    const auto opened = MappedColumnar::Open(path);
    EXPECT_EQ(opened.status().code(), StatusCode::kIoError) << path;
    EXPECT_NE(opened.status().message().find("not a regular file"),
              std::string::npos)
        << opened.status();
  }
  std::remove(fifo.c_str());
}

TEST_F(ColumnarFormatTest, OpenRefusesBadMagic) {
  const std::string path = TempPath("magic.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(5), path).ok());
  std::string bytes = ReadBytes(path);
  bytes[0] = 'X';
  WriteBytes(path, bytes);
  const auto opened = MappedColumnar::Open(path);
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
}

TEST_F(ColumnarFormatTest, OpenRefusesNewerFormatVersion) {
  const std::string path = TempPath("future.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(5), path).ok());
  std::string bytes = ReadBytes(path);
  // The version u32 sits right after the 8-byte magic (little-endian).
  bytes[8] = static_cast<char>(kColumnarFormatVersion + 1);
  WriteBytes(path, bytes);
  EXPECT_EQ(MappedColumnar::Open(path).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ColumnarFormatTest, OpenRefusesHeaderCorruption) {
  const std::string path = TempPath("header.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(5), path).ok());
  std::string bytes = ReadBytes(path);
  // First header payload byte (after magic + version + hlen + hcrc).
  bytes[24] = static_cast<char>(bytes[24] ^ 0x40);
  WriteBytes(path, bytes);
  const auto opened = MappedColumnar::Open(path);
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
  EXPECT_NE(opened.status().message().find("CRC"), std::string::npos);
}

TEST_F(ColumnarFormatTest, OpenRefusesTruncation) {
  const std::string path = TempPath("truncated.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(100), path).ok());
  const std::string bytes = ReadBytes(path);
  // Cutting the last column block off makes its recorded extent run past
  // the end of the file — structural check, no data scan needed.
  WriteBytes(path, bytes.substr(0, bytes.size() - 64));
  EXPECT_EQ(MappedColumnar::Open(path).status().code(), StatusCode::kIoError);
  // A file shorter than the fixed prefix is refused too.
  WriteBytes(path, bytes.substr(0, 10));
  EXPECT_EQ(MappedColumnar::Open(path).status().code(), StatusCode::kIoError);
}

TEST_F(ColumnarFormatTest, VerifyDataCatchesColumnCorruption) {
  const std::string path = TempPath("bitrot.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(100), path).ok());
  std::string bytes = ReadBytes(path);
  // Flip a committed cell in the last column block (the final bytes of the
  // file are alignment padding; 64 bytes back is inside the committed 200
  // bytes of the 16-bit column). The header stays intact, so the default
  // trust-the-file open still succeeds...
  const size_t victim = bytes.size() - 64;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x01);
  WriteBytes(path, bytes);
  const auto opened = MappedColumnar::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  // ...but the O(data) pass catches it, both standalone and at open time.
  EXPECT_EQ((*opened)->VerifyData().code(), StatusCode::kIoError);
  ColumnarOpenOptions verify;
  verify.verify_data = true;
  EXPECT_EQ(MappedColumnar::Open(path, verify).status().code(),
            StatusCode::kIoError);
}

TEST_F(ColumnarFormatTest, AppendWithinCapacityCommitsInPlace) {
  const std::string path = TempPath("append.dpxcol");
  ColumnarWriteOptions options;
  options.capacity_rows = 64;
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(10), path, options).ok());
  const auto base = MappedColumnar::Open(path);
  ASSERT_TRUE(base.ok()) << base.status();

  const auto appended = AppendRowsToColumnar(*base, {{2, 299}, {0, 123}});
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_EQ((*appended)->num_rows(), 12u);
  EXPECT_EQ((*appended)->capacity_rows(), 64u);
  EXPECT_EQ((*appended)->file_uid(), (*base)->file_uid());
  // The base handle is an immutable snapshot at the old row count.
  EXPECT_EQ((*base)->num_rows(), 10u);

  // A cold reopen sees the committed tail and passes the full data scan.
  ColumnarOpenOptions verify;
  verify.verify_data = true;
  const auto reopened = MappedColumnar::Open(path, verify);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->num_rows(), 12u);
  const auto dataset = Dataset::FromMapped(*reopened);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->Row(10), (std::vector<ValueCode>{2, 299}));
  EXPECT_EQ(dataset->Row(11), (std::vector<ValueCode>{0, 123}));
}

TEST_F(ColumnarFormatTest, AppendBeyondCapacityGrowsPreservingUid) {
  const std::string path = TempPath("grow.dpxcol");
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(10), path).ok());  // capacity 10
  const auto base = MappedColumnar::Open(path);
  ASSERT_TRUE(base.ok()) << base.status();
  const uint64_t uid = (*base)->file_uid();

  std::vector<std::vector<ValueCode>> tail;
  for (size_t i = 0; i < 5; ++i) {
    tail.push_back({static_cast<ValueCode>(i % 3),
                    static_cast<ValueCode>(i)});
  }
  const auto grown = AppendRowsToColumnar(*base, tail);
  ASSERT_TRUE(grown.ok()) << grown.status();
  EXPECT_EQ((*grown)->num_rows(), 15u);
  EXPECT_GE((*grown)->capacity_rows(), 20u);  // doubled, not just 15
  EXPECT_EQ((*grown)->file_uid(), uid);
  // The old handle still reads its inode (renamed away, not truncated).
  EXPECT_EQ((*base)->num_rows(), 10u);
  EXPECT_TRUE((*base)->VerifyData().ok());
  EXPECT_TRUE((*grown)->VerifyData().ok());
}

TEST_F(ColumnarFormatTest, AppendValidatesRows) {
  const std::string path = TempPath("validate.dpxcol");
  ColumnarWriteOptions options;
  options.capacity_rows = 32;
  ASSERT_TRUE(WriteColumnarFile(MakeDataset(5), path, options).ok());
  const auto base = MappedColumnar::Open(path);
  ASSERT_TRUE(base.ok()) << base.status();

  // Wrong arity and out-of-domain codes are refused before any byte is
  // written; the file is untouched.
  EXPECT_EQ(AppendRowsToColumnar(*base, {{0}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AppendRowsToColumnar(*base, {{0, 300}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AppendRowsToColumnar(*base, {{3, 0}}).status().code(),
            StatusCode::kInvalidArgument);
  const auto reopened = MappedColumnar::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->num_rows(), 5u);

  // Empty append is a no-op returning the same snapshot.
  const auto same = AppendRowsToColumnar(*base, {});
  ASSERT_TRUE(same.ok());
  EXPECT_EQ((*same)->num_rows(), 5u);
}

}  // namespace
}  // namespace dpclustx
