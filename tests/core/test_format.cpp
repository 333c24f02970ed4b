// Stream format: header serialization, validation, Eq. 2, stream
// inspection, and robustness against malformed inputs.
#include <gtest/gtest.h>

#include "szp/core/block_codec.hpp"
#include "szp/core/format.hpp"
#include "szp/core/serial.hpp"
#include "szp/util/rng.hpp"

namespace szp::core {
namespace {

TEST(Format, HeaderRoundtrip) {
  Header h;
  h.num_elements = 123456789;
  h.eb_abs = 3.25e-4;
  h.block_len = 64;
  h.flags = 0b101;
  std::vector<byte_t> buf(Header::kSize);
  h.serialize(buf);
  const Header g = Header::deserialize(buf);
  EXPECT_EQ(g.num_elements, h.num_elements);
  EXPECT_DOUBLE_EQ(g.eb_abs, h.eb_abs);
  EXPECT_EQ(g.block_len, h.block_len);
  EXPECT_EQ(g.flags, h.flags);
  EXPECT_TRUE(g.lorenzo());
  EXPECT_FALSE(g.zero_block_bypass());
  EXPECT_TRUE(g.bit_shuffle());
}

TEST(Format, HeaderRejectsBadMagicAndFields) {
  Header h;
  h.num_elements = 10;
  h.eb_abs = 1e-3;
  std::vector<byte_t> buf(Header::kSize);
  h.serialize(buf);
  auto bad = buf;
  bad[0] ^= 0xFF;
  EXPECT_THROW((void)Header::deserialize(bad), format_error);
  EXPECT_THROW((void)Header::deserialize(std::span<const byte_t>(buf.data(), 8)),
               format_error);
}

TEST(Format, ParamsValidation) {
  Params p;
  p.block_len = 12;  // not a multiple of 8
  EXPECT_THROW(p.validate(), format_error);
  p.block_len = 32;
  p.error_bound = 0;
  EXPECT_THROW(p.validate(), format_error);
  p.error_bound = 1.5;
  p.mode = ErrorMode::kRel;
  EXPECT_THROW(p.validate(), format_error);  // REL must be < 1
  p.mode = ErrorMode::kAbs;
  EXPECT_NO_THROW(p.validate());
}

TEST(Format, ResolveEb) {
  Params p;
  p.mode = ErrorMode::kAbs;
  p.error_bound = 0.25;
  EXPECT_DOUBLE_EQ(resolve_eb(p, 100.0), 0.25);
  p.mode = ErrorMode::kRel;
  p.error_bound = 1e-3;
  EXPECT_DOUBLE_EQ(resolve_eb(p, 100.0), 0.1);
  EXPECT_GT(resolve_eb(p, 0.0), 0);  // constant data: still positive
}

TEST(Format, Equation2BlockBytes) {
  // CmpL = (F + 1) * L / 8 (paper Eq. 2); zero-block bypass -> 0.
  EXPECT_EQ(block_cmp_bytes(8, 8), 9u);  // the paper's worked example
  EXPECT_EQ(block_cmp_bytes(4, 32), 20u);
  EXPECT_EQ(block_cmp_bytes(0, 32, true), 0u);
  EXPECT_EQ(block_cmp_bytes(0, 32, false), 4u);  // sign map only
  EXPECT_EQ(num_blocks(100, 32), 4u);
  EXPECT_EQ(num_blocks(0, 32), 0u);
}

TEST(Format, InspectStreamCountsZeroBlocks) {
  std::vector<float> data(320, 0.0f);
  for (size_t i = 64; i < 96; ++i) data[i] = 5.0f;  // one loud block
  Params p;
  p.mode = ErrorMode::kAbs;
  p.error_bound = 1e-2;
  const auto stream = compress_serial(data, p);
  const auto stats = inspect_stream(stream);
  EXPECT_EQ(stats.num_blocks, 10u);
  EXPECT_EQ(stats.zero_blocks, 9u);
  EXPECT_GT(stats.mean_fixed_length, 0.0);
  EXPECT_GT(stats.payload_bytes, 0u);
}

TEST(Format, DecompressRejectsTruncatedStreams) {
  Rng rng(17);
  std::vector<float> data(1000);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  Params p;
  p.mode = ErrorMode::kAbs;
  p.error_bound = 1e-3;
  const auto stream = compress_serial(data, p);
  // Truncate at many boundaries: must throw format_error, never crash or
  // return silently wrong sizes.
  for (const size_t keep :
       {size_t{0}, size_t{8}, Header::kSize - 1, Header::kSize,
        Header::kSize + 5, stream.size() - 1}) {
    EXPECT_THROW(
        (void)decompress_serial(std::span<const byte_t>(stream.data(), keep)),
        format_error)
        << "keep=" << keep;
  }
}

TEST(Format, DecompressSurvivesBitFlipsInLengthArea) {
  // Corrupted length bytes may change sizes arbitrarily; decompression
  // must either succeed (flip was benign) or throw format_error.
  Rng rng(18);
  std::vector<float> data(2048);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  Params p;
  p.mode = ErrorMode::kAbs;
  p.error_bound = 1e-2;
  const auto stream = compress_serial(data, p);
  for (int trial = 0; trial < 50; ++trial) {
    auto corrupted = stream;
    const size_t pos =
        lengths_offset() + rng.next_below(num_blocks(2048, 32));
    corrupted[pos] = static_cast<byte_t>(rng.next_below(256));
    try {
      const auto out = decompress_serial(corrupted);
      EXPECT_EQ(out.size(), data.size());
    } catch (const format_error&) {
      // acceptable
    }
  }
}

TEST(Format, StreamSizeMatchesInspectAccounting) {
  Rng rng(19);
  std::vector<float> data(5000);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 3);
  Params p;
  p.mode = ErrorMode::kAbs;
  p.error_bound = 5e-3;
  const auto stream = compress_serial(data, p);
  const auto stats = inspect_stream(stream);
  EXPECT_EQ(stream.size(), payload_offset(stats.num_blocks) +
                               stats.payload_bytes + stats.footer_bytes);
  EXPECT_EQ(stats.version, Header::kVersion);
  EXPECT_EQ(stats.checksum_groups,
            num_checksum_groups(stats.num_blocks, kChecksumGroupBlocks));
}

// ------------------------------------------------------- length scan ----

/// Scalar reference for scan_lengths, one byte at a time.
struct ScanReference {
  bool valid = true;
  std::vector<std::uint64_t> group_begin;
  std::uint64_t payload_bytes = 0;
  size_t zero_blocks = 0, outlier_blocks = 0;
  std::uint64_t fixed_length_sum = 0;
};

ScanReference scan_reference(std::span<const byte_t> lengths, unsigned L,
                             bool bypass, unsigned group_blocks) {
  ScanReference r;
  for (size_t b = 0; b < lengths.size(); ++b) {
    if (b % group_blocks == 0) r.group_begin.push_back(r.payload_bytes);
    const std::uint8_t lb = lengths[b];
    if (!valid_length_byte(lb)) {
      r.valid = false;
      continue;
    }
    r.payload_bytes += block_payload_bytes(lb, L, bypass);
    r.zero_blocks += lb == 0;
    r.outlier_blocks += lb >= kOutlierFlag;
    r.fixed_length_sum += lb >= kOutlierFlag ? lb - kOutlierFlag : lb;
  }
  return r;
}

void expect_scan_matches(std::span<const byte_t> lengths, unsigned L,
                         bool bypass, unsigned group_blocks,
                         const std::string& what) {
  const ScanReference want = scan_reference(lengths, L, bypass, group_blocks);
  const LengthScan got = scan_lengths(lengths, L, bypass, group_blocks);
  ASSERT_EQ(got.valid, want.valid) << what;
  ASSERT_EQ(got.groups(), want.group_begin.size()) << what;
  if (!want.valid) return;
  EXPECT_EQ(got.group_begin, want.group_begin) << what;
  EXPECT_EQ(got.payload_bytes, want.payload_bytes) << what;
  EXPECT_EQ(got.zero_blocks, want.zero_blocks) << what;
  EXPECT_EQ(got.outlier_blocks, want.outlier_blocks) << what;
  EXPECT_EQ(got.fixed_length_sum, want.fixed_length_sum) << what;
  for (size_t b = 0; b <= lengths.size(); b += 7) {
    std::uint64_t off = 0;
    for (size_t k = 0; k < b; ++k) {
      off += block_payload_bytes(lengths[k], L, bypass);
    }
    ASSERT_EQ(got.block_offset(lengths, b), off) << what << " block " << b;
  }
  EXPECT_EQ(got.block_offset(lengths, lengths.size()), want.payload_bytes);
}

TEST(LengthScan, EveryByteValueAloneAndAmongValidBytes) {
  // Each of the 256 byte values, placed at every position class of a
  // vector tile (lane, row, tail) inside otherwise valid groups.
  Rng rng(17);
  for (unsigned v = 0; v < 256; ++v) {
    for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{200}}) {
      std::vector<byte_t> lengths(n);
      for (auto& lb : lengths) {
        lb = static_cast<byte_t>(rng.next_below(33) +
                                 (rng.next_below(4) == 0 ? kOutlierFlag : 0));
      }
      lengths[rng.next_below(n)] = static_cast<byte_t>(v);
      for (const bool bypass : {true, false}) {
        for (const unsigned gb : {1u, 5u, 64u, 256u}) {
          expect_scan_matches(lengths, 32, bypass, gb,
                              "byte " + std::to_string(v) + " n " +
                                  std::to_string(n) + " bypass " +
                                  std::to_string(bypass) + " gb " +
                                  std::to_string(gb));
        }
      }
    }
  }
}

TEST(LengthScan, PartialLastGroupsAndBlockLengths) {
  Rng rng(99);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{255}, size_t{257},
                         size_t{1000}, size_t{4099}}) {
    std::vector<byte_t> lengths(n);
    for (auto& lb : lengths) {
      // Mostly zero or small F, some maxed and outlier blocks: sums that
      // would wrap a byte lane if the tile were too tall.
      const auto pick = rng.next_below(8);
      lb = static_cast<byte_t>(pick < 3   ? 0
                               : pick < 5 ? 32
                               : pick < 6 ? kOutlierFlag + 32
                                          : rng.next_below(97));
      if (!valid_length_byte(lb)) lb = 7;
    }
    for (const unsigned L : {8u, 32u, 256u}) {
      for (const bool bypass : {true, false}) {
        for (const unsigned gb : {3u, 100u, 256u, 65535u}) {
          expect_scan_matches(lengths, L, bypass, gb,
                              "n " + std::to_string(n) + " L " +
                                  std::to_string(L) + " gb " +
                                  std::to_string(gb));
        }
      }
    }
  }
}

TEST(LengthScan, RejectsZeroGroupSize) {
  const std::vector<byte_t> lengths(4, 1);
  EXPECT_THROW((void)scan_lengths(lengths, 32, true, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace szp::core
