// Sharded archive (format v2): journaled ingest, shard packing, point
// queries that touch a sliver of the archive, dtype-aware accounting,
// and error handling on damaged/missing directories.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "szp/archive/archive_v2.hpp"
#include "szp/archive/layout.hpp"
#include "szp/core/random_access.hpp"
#include "szp/data/registry.hpp"
#include "szp/metrics/error.hpp"
#include "szp/robust/io.hpp"
#include "szp/util/rng.hpp"

namespace szp::archive {
namespace {

WriterOptions rel_options(double rel, size_t shard_budget = 4u << 20) {
  WriterOptions o;
  o.params.mode = core::ErrorMode::kRel;
  o.params.error_bound = rel;
  o.shard_budget_bytes = shard_budget;
  return o;
}

std::vector<data::Field> suite_fields() {
  return data::make_suite(data::Suite::kHurricane, 0.02);
}

TEST(ArchiveV2, MultiFieldRoundtrip) {
  robust::MemFs fs;
  const auto fields = suite_fields();
  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  for (const auto& f : fields) w.add(f);
  EXPECT_EQ(w.num_pending(), fields.size());
  EXPECT_EQ(w.commit(), 1u);

  ArchiveReader r(fs, "arc");
  EXPECT_EQ(r.generation(), 1u);
  ASSERT_EQ(r.entries().size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(r.entries()[i].name, fields[i].name);
    EXPECT_EQ(r.entries()[i].dims, fields[i].dims);
    EXPECT_GT(r.entries()[i].compression_ratio(), 1.0);
    const auto out = r.extract(i);
    const auto stats = metrics::compare(fields[i].values, out.values);
    EXPECT_LE(stats.max_rel_err, 1e-3 * (1 + 1e-9)) << fields[i].name;
  }
  // A committed archive holds no journal and no temp files.
  EXPECT_FALSE(fs.exists(layout::journal_path("arc")));
}

TEST(ArchiveV2, ShardBudgetSplitsAndZeroMeansPerStream) {
  robust::MemFs fs;
  const auto fields = suite_fields();
  {
    ArchiveWriter w(fs, "tiny", rel_options(1e-3, 1));  // 1-byte budget
    for (const auto& f : fields) w.add(f);
    w.commit();
    ArchiveReader r(fs, "tiny");
    EXPECT_EQ(r.index().shards.size(), fields.size());
  }
  {
    ArchiveWriter w(fs, "per-stream", rel_options(1e-3, 0));
    for (const auto& f : fields) w.add(f);
    w.commit();
    ArchiveReader r(fs, "per-stream");
    EXPECT_EQ(r.index().shards.size(), fields.size());
  }
  {
    ArchiveWriter w(fs, "one", rel_options(1e-3, 64u << 20));
    for (const auto& f : fields) w.add(f);
    w.commit();
    ArchiveReader r(fs, "one");
    EXPECT_EQ(r.index().shards.size(), 1u);
  }
}

TEST(ArchiveV2, ParallelIngestMatchesSerialByteForByte) {
  const auto fields = suite_fields();
  robust::MemFs serial_fs;
  robust::MemFs parallel_fs;
  {
    ArchiveWriter w(serial_fs, "a", rel_options(1e-3));
    for (const auto& f : fields) w.add(f);
    w.commit();
  }
  {
    auto opts = rel_options(1e-3);
    opts.threads = 4;
    ArchiveWriter w(parallel_fs, "a", opts);
    for (const auto& f : fields) w.add(f);
    w.commit();
  }
  EXPECT_EQ(serial_fs.read_file(layout::index_path("a")),
            parallel_fs.read_file(layout::index_path("a")));
  const auto shards = serial_fs.list_dir(layout::shard_dir("a"));
  EXPECT_EQ(shards, parallel_fs.list_dir(layout::shard_dir("a")));
  for (const auto& s : shards) {
    EXPECT_EQ(serial_fs.read_file(layout::shard_path("a", s)),
              parallel_fs.read_file(layout::shard_path("a", s)));
  }
}

TEST(ArchiveV2, AppendCommitBumpsGeneration) {
  robust::MemFs fs;
  const auto fields = suite_fields();
  {
    ArchiveWriter w(fs, "arc", rel_options(1e-3));
    w.add(fields[0]);
    EXPECT_EQ(w.commit(), 1u);
  }
  {
    ArchiveWriter w(fs, "arc", rel_options(1e-3));
    w.add(fields[1]);
    EXPECT_EQ(w.commit(), 2u);
  }
  ArchiveReader r(fs, "arc");
  EXPECT_EQ(r.generation(), 2u);
  ASSERT_EQ(r.entries().size(), 2u);
  EXPECT_EQ(r.extract(fields[0].name).values.size(), fields[0].count());
  EXPECT_EQ(r.extract(fields[1].name).values.size(), fields[1].count());
  // Committing against an existing archive rejects committed names too.
  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  w.add(fields[0]);
  EXPECT_THROW(w.commit(), format_error);
}

TEST(ArchiveV2, RangeQueryMatchesFullDecodeAndStaysLocal) {
  robust::MemFs fs;
  // The locality bar needs a realistically sized entry: on a toy archive
  // the fixed per-query overhead (header + per-block length bytes +
  // footer + index) dominates. Noisy data keeps the payload honest.
  data::Field big;
  big.name = "big";
  big.dims.extents = {1u << 19};
  big.values.resize(big.dims.count());
  Rng rng(42);
  for (auto& v : big.values) v = static_cast<float>(rng.normal() * 16.0);

  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  for (const auto& f : suite_fields()) w.add(f);
  w.add(big);
  w.commit();

  ArchiveReader full_reader(fs, "arc");
  const size_t idx = full_reader.entry_index("big");
  const auto full = full_reader.extract(idx);

  ArchiveReader r(fs, "arc");
  const size_t n = full.values.size();
  const size_t begin = n / 3;
  const size_t end = begin + 2048;
  const auto range = r.extract_range(idx, begin, end);
  ASSERT_EQ(range.size(), end - begin);
  for (size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(range[i], full.values[begin + i]) << i;
  }
  // The point query must touch a small fraction of the archive: the
  // acceptance bar is < 5% of total committed bytes.
  const double fraction =
      static_cast<double>(r.io_stats().bytes_read) /
      static_cast<double>(r.archive_bytes());
  EXPECT_LT(fraction, 0.05) << "touched " << r.io_stats().bytes_read
                            << " of " << r.archive_bytes();

  // Degenerate ranges and bounds.
  EXPECT_TRUE(r.extract_range(idx, 5, 5).empty());
  EXPECT_THROW((void)r.extract_range(idx, 0, n + 1), format_error);
  EXPECT_THROW((void)r.extract_range(idx, 3, 2), format_error);
}

TEST(ArchiveV2, F64EntriesRoundtripWithHonestRatio) {
  robust::MemFs fs;
  std::vector<double> values(4096);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(static_cast<double>(i) * 0.01) * 40.0;
  }
  auto opts = rel_options(1e-4);
  ArchiveWriter w(fs, "arc", opts);
  w.add_f64("pressure", data::Dims{{64, 64}}, values);
  w.add(suite_fields()[0]);
  w.commit();

  ArchiveReader r(fs, "arc");
  const size_t i = r.entry_index("pressure");
  EXPECT_EQ(r.entries()[i].dtype, Dtype::kF64);
  EXPECT_EQ(r.entries()[i].element_bytes(), 8u);
  const auto out = r.extract_f64(i);
  ASSERT_EQ(out.size(), values.size());

  // Regression: the ratio numerator must use 8-byte elements. The v1
  // container hardcoded 4 and halved every f64 ratio.
  const auto& e = r.entries()[i];
  const double expected = static_cast<double>(e.dims.count() * 8) /
                          static_cast<double>(e.stream_bytes);
  EXPECT_DOUBLE_EQ(e.compression_ratio(), expected);
  EXPECT_THROW((void)r.extract(i), format_error);
  EXPECT_THROW((void)r.extract_f64(r.entry_index(suite_fields()[0].name)),
               format_error);
}

TEST(ArchiveV2, DuplicatePendingNameRejected) {
  robust::MemFs fs;
  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  const auto f = suite_fields()[0];
  w.add(f);
  EXPECT_THROW(w.add(f), format_error);
}

TEST(ArchiveV2, OpenErrorsAreDistinct) {
  robust::MemFs fs;
  // Missing archive: format_error naming the directory.
  EXPECT_THROW(ArchiveReader(fs, "nope"), format_error);

  ArchiveWriter w(fs, "arc", rel_options(1e-3));
  w.add(suite_fields()[0]);
  w.commit();
  // Truncated index: rejected at open.
  auto* index = fs.find(layout::index_path("arc"));
  ASSERT_NE(index, nullptr);
  index->resize(index->size() / 2);
  EXPECT_THROW(ArchiveReader(fs, "arc"), format_error);
}

TEST(ArchiveV2, MissingShardFailsExtractionNotOpen) {
  robust::MemFs fs;
  ArchiveWriter w(fs, "arc", rel_options(1e-3, 0));
  const auto fields = suite_fields();
  w.add(fields[0]);
  w.add(fields[1]);
  w.commit();
  ArchiveReader r(fs, "arc");
  const auto victim =
      layout::shard_path("arc",
                         r.index().shards[r.entries()[0].shard_index]
                             .file_name());
  fs.remove(victim);
  EXPECT_THROW((void)r.extract(0), robust::io_error);
  // The other entry still extracts; try_extract reports instead of throwing.
  EXPECT_EQ(r.extract(1).values.size(), fields[1].count());
  data::Field out;
  const auto rep = r.try_extract(0, out);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(out.values.empty());
}

// ------------------------------------------------- range read checks ----

/// A field with zero blocks, smooth blocks and a spike at the end of every
/// third L-element block (one large value per block is what outlier mode
/// records as an outlier).
data::Field mixed_field(size_t n, unsigned L) {
  data::Field f;
  f.name = "mixed";
  f.dims.extents = {n};
  f.values.resize(n);
  Rng rng(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t region = i * 5 / n;
    if (region == 1) continue;  // zeros
    f.values[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                                     rng.normal() * 0.01);
    if (i % L == L - 1 && i / L % 3 == 0) f.values[i] += 50.0f;
  }
  return f;
}

/// The entry's stream bytes inside its shard file, for in-place damage.
std::span<byte_t> stored_stream(robust::MemFs& fs, const ArchiveReader& r,
                                size_t i) {
  const EntryInfo& e = r.entries()[i];
  auto* file = fs.find(layout::shard_path(
      "arc", r.index().shards[e.shard_index].file_name()));
  EXPECT_NE(file, nullptr);
  return std::span(*file).subspan(layout::kShardHeaderBytes + e.offset,
                                  e.stream_bytes);
}

/// An archive holding one mixed field compressed with `p`.
void write_mixed(robust::MemFs& fs, const core::Params& p, size_t n) {
  WriterOptions o;
  o.params = p;
  ArchiveWriter w(fs, "arc", o);
  w.add(mixed_field(n, p.block_len));
  w.commit();
}

core::Params grouped_params(unsigned L, unsigned group_blocks) {
  core::Params p;
  p.mode = core::ErrorMode::kAbs;
  p.error_bound = 1e-3;
  p.block_len = L;
  p.checksum_group_blocks = group_blocks;
  return p;
}

TEST(ArchiveV2Range, MatchesCoreRangeAndFullDecodeAcrossFormats) {
  // 7-block groups over 39 blocks: the last group is partial, the last
  // block is a tail block.
  constexpr unsigned kGroup = 7;
  for (const unsigned L : {8u, 32u, 256u}) {
    const size_t n = 38 * size_t{L} + 5;
    for (const unsigned gb : {0u, kGroup}) {
      for (const bool outlier : {false, true}) {
        for (const bool bypass : {true, false}) {
          core::Params p = grouped_params(L, gb);
          p.outlier_mode = outlier;
          p.zero_block_bypass = bypass;
          robust::MemFs fs;
          write_mixed(fs, p, n);
          ArchiveReader r(fs, "arc");
          const auto full = r.extract(0).values;
          const auto stream = r.read_stream(0);
          // The grid only means something if the streams hold what it
          // varies: zero blocks, and outlier blocks in outlier mode.
          const auto stats = core::inspect_stream(stream);
          ASSERT_EQ(stats.num_blocks, 39u);
          ASSERT_GT(stats.zero_blocks, 0u);
          ASSERT_EQ(stats.outlier_blocks > 0, outlier);
          ASSERT_EQ(stats.checksum_groups, gb == 0 ? 0u : 6u);
          const size_t g = kGroup * size_t{L};  // elements per group
          const std::vector<std::pair<size_t, size_t>> ranges = {
              {0, n},         {0, 0},         {n, n},
              {g, g},         {g, 2 * g},     {g - 1, g + 1},
              {0, g},         {2 * g, 5 * g}, {n - 1, n},
              {n - L - 3, n}, {5 * g, n},     {3, 5}};
          for (const auto& [b, e] : ranges) {
            const std::string what =
                "L " + std::to_string(L) + " gb " + std::to_string(gb) +
                " outlier " + std::to_string(outlier) + " bypass " +
                std::to_string(bypass) + " [" + std::to_string(b) + ", " +
                std::to_string(e) + ")";
            const std::vector<float> want(full.begin() + b, full.begin() + e);
            ASSERT_EQ(core::decompress_range(stream, b, e), want) << what;
            ASSERT_EQ(r.extract_range(0, b, e), want) << what;
          }
        }
      }
    }
  }
}

TEST(ArchiveV2Range, CorruptLengthByteOutsideRangeThrows) {
  constexpr unsigned L = 32;
  const size_t n = 160 * L;
  for (const unsigned gb : {0u, 16u}) {
    robust::MemFs fs;
    write_mixed(fs, grouped_params(L, gb), n);
    ArchiveReader r(fs, "arc");
    ASSERT_NO_THROW((void)r.extract_range(0, 0, 100));
    auto stream = stored_stream(fs, r, 0);
    // Block 150 lies far outside the queried first group.
    stream[core::lengths_offset() + 150] = 0xC7;
    EXPECT_THROW((void)r.extract_range(0, 0, 100), format_error) << gb;
    const std::vector<byte_t> copy(stream.begin(), stream.end());
    EXPECT_THROW((void)core::decompress_range(copy, 0, 100), format_error);
  }
}

TEST(ArchiveV2Range, ValidButWrongLengthByteOutsideRangeThrows) {
  // A legal value that changes the block's size moves where the prefix sum
  // puts the footer, which the footer checks then reject.
  constexpr unsigned L = 32;
  robust::MemFs fs;
  write_mixed(fs, grouped_params(L, 16), 160 * L);
  ArchiveReader r(fs, "arc");
  auto stream = stored_stream(fs, r, 0);
  auto& lb = stream[core::lengths_offset() + 150];
  lb = lb == 5 ? 6 : 5;
  EXPECT_THROW((void)r.extract_range(0, 0, 100), format_error);
}

TEST(ArchiveV2Range, TamperedFooterOffsetOfCoveringGroupThrows) {
  constexpr unsigned L = 32, kGroup = 16;
  robust::MemFs fs;
  write_mixed(fs, grouped_params(L, kGroup), 160 * L);
  ArchiveReader r(fs, "arc");
  auto stream = stored_stream(fs, r, 0);
  const auto stats = core::inspect_stream(stream);
  const auto footer_bytes =
      stream.subspan(core::payload_offset(stats.num_blocks) +
                     stats.payload_bytes);
  auto footer = core::ChecksumFooter::deserialize(footer_bytes);
  footer.offsets[3] += 1;
  footer.serialize(footer_bytes);  // self-CRC stays valid
  const size_t in_group3 = 3 * kGroup * L + 10;
  EXPECT_THROW((void)r.extract_range(0, in_group3, in_group3 + 40),
               format_error);
  const std::vector<byte_t> copy(stream.begin(), stream.end());
  EXPECT_THROW((void)core::decompress_range(copy, in_group3, in_group3 + 40),
               format_error);
}

TEST(ArchiveV2Range, CorruptPayloadOutsideCoveringGroupsKeepsLocality) {
  constexpr unsigned L = 32, kGroup = 16;
  const size_t n = 160 * L;
  robust::MemFs fs;
  write_mixed(fs, grouped_params(L, kGroup), n);
  ArchiveReader r(fs, "arc");
  const auto full = r.extract(0).values;
  auto stream = stored_stream(fs, r, 0);
  const auto h = core::Header::deserialize(stream);
  const auto spans = core::checksum_group_spans(stream, h, kGroup);
  ASSERT_GT(spans[8].payload_end, spans[8].payload_begin);
  stream[spans[8].payload_begin] ^= 0x5A;

  // Group 0 is untouched: its range still reads, exactly.
  const std::vector<float> want(full.begin(), full.begin() + 100);
  EXPECT_EQ(r.extract_range(0, 0, 100), want);
  const std::vector<byte_t> copy(stream.begin(), stream.end());
  EXPECT_EQ(core::decompress_range(copy, 0, 100), want);
  // A range covering group 8 sees the damage.
  const size_t in_group8 = 8 * kGroup * L;
  EXPECT_THROW((void)r.extract_range(0, in_group8, in_group8 + 1),
               format_error);
}

}  // namespace
}  // namespace szp::archive
