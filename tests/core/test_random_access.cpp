// Random-access decompression: range equality with full decompression,
// partial-read accounting, bounds handling.
#include <gtest/gtest.h>

#include "szp/core/random_access.hpp"
#include "szp/core/block_codec.hpp"
#include "szp/core/serial.hpp"
#include "szp/data/registry.hpp"
#include "szp/util/rng.hpp"

namespace szp::core {
namespace {

struct Fixture {
  std::vector<float> data;
  std::vector<byte_t> stream;
  std::vector<float> full;

  explicit Fixture(size_t n, double eb = 1e-3) {
    Rng rng(n);
    data.resize(n);
    double acc = 0;
    for (auto& v : data) {
      acc += rng.normal() * 0.05;
      v = static_cast<float>(acc + rng.normal() * 0.001);
    }
    Params p;
    p.mode = ErrorMode::kAbs;
    p.error_bound = eb;
    stream = compress_serial(data, p);
    full = decompress_serial(stream);
  }
};

class RangeSweep : public ::testing::TestWithParam<std::pair<size_t, size_t>> {
};

TEST_P(RangeSweep, MatchesFullDecompressionExactly) {
  static const Fixture fx(10000);
  const auto [begin, end] = GetParam();
  const auto part = decompress_range(fx.stream, begin, end);
  ASSERT_EQ(part.size(), end - begin);
  for (size_t i = 0; i < part.size(); ++i) {
    ASSERT_EQ(part[i], fx.full[begin + i]) << "element " << begin + i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RangeSweep,
    ::testing::Values(std::pair<size_t, size_t>{0, 10000},   // everything
                      std::pair<size_t, size_t>{0, 1},       // first element
                      std::pair<size_t, size_t>{9999, 10000}, // last element
                      std::pair<size_t, size_t>{31, 33},     // block boundary
                      std::pair<size_t, size_t>{32, 64},     // exact block
                      std::pair<size_t, size_t>{100, 100},   // empty
                      std::pair<size_t, size_t>{4000, 6000},
                      std::pair<size_t, size_t>{1, 9999}));

TEST(RandomAccess, RandomizedRangesAgainstFull) {
  const Fixture fx(50000, 1e-2);
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t a = rng.next_below(50000);
    const size_t b = a + rng.next_below(50000 - a + 1);
    const auto part = decompress_range(fx.stream, a, b);
    ASSERT_EQ(part.size(), b - a);
    for (size_t i = 0; i < part.size(); i += 97) {
      ASSERT_EQ(part[i], fx.full[a + i]);
    }
  }
}

TEST(RandomAccess, PayloadBytesScaleWithRange) {
  const Fixture fx(100000);
  const size_t tiny = range_payload_bytes(fx.stream, 0, 32);
  const size_t half = range_payload_bytes(fx.stream, 0, 50000);
  const size_t all = range_payload_bytes(fx.stream, 0, 100000);
  EXPECT_LT(tiny, half);
  EXPECT_LT(half, all);
  // The whole point: a small range reads a small fraction of the payload.
  EXPECT_LT(tiny * 100, all);
  // Full range touches exactly the whole payload.
  const auto stats = inspect_stream(fx.stream);
  EXPECT_EQ(all, stats.payload_bytes);
}

TEST(RandomAccess, OutOfBoundsThrows) {
  const Fixture fx(1000);
  EXPECT_THROW((void)decompress_range(fx.stream, 0, 1001), format_error);
  EXPECT_THROW((void)decompress_range(fx.stream, 500, 400), format_error);
}

TEST(RandomAccess, WorksOnSuiteFieldsWithZeroBlocks) {
  const auto field = data::make_field(data::Suite::kRtm, 0, 0.05);
  Params p;
  p.error_bound = 1e-2;
  const auto stream = compress_serial(field.values, p, field.value_range());
  const auto full = decompress_serial(stream);
  const size_t mid = field.count() / 2;
  const auto part = decompress_range(stream, mid - 500, mid + 500);
  for (size_t i = 0; i < part.size(); ++i) {
    ASSERT_EQ(part[i], full[mid - 500 + i]);
  }
}

// ---------------------------------------------------- range integrity ----

// 160 blocks in 10 checksum groups of 16 blocks; a query in group 0.
constexpr unsigned kGroup = 16;
constexpr size_t kGroupElems = kGroup * 32;

std::vector<byte_t> grouped_stream() {
  Rng rng(5);
  std::vector<float> data(10 * kGroupElems);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  Params p;
  p.mode = ErrorMode::kAbs;
  p.error_bound = 1e-3;
  p.checksum_group_blocks = kGroup;
  return compress_serial(data, p);
}

size_t footer_offset(std::span<const byte_t> stream) {
  const auto stats = inspect_stream(stream);
  return payload_offset(stats.num_blocks) + stats.payload_bytes;
}

TEST(RangeIntegrity, CorruptLengthByteOutsideRangeThrows) {
  for (const std::uint8_t bad : {std::uint8_t{33}, std::uint8_t{0xFF}}) {
    auto stream = grouped_stream();
    stream[lengths_offset() + 150] = bad;  // group 9
    EXPECT_THROW((void)decompress_range(stream, 0, 100), format_error);
  }
  // A legal but wrong value moves the footer the prefix sum finds.
  auto stream = grouped_stream();
  auto& lb = stream[lengths_offset() + 150];
  lb = lb == 5 ? 6 : 5;
  EXPECT_THROW((void)decompress_range(stream, 0, 100), format_error);
}

TEST(RangeIntegrity, TamperedFooterOffsetOfCoveringGroupThrows) {
  auto stream = grouped_stream();
  const auto at = std::span(stream).subspan(footer_offset(stream));
  auto footer = ChecksumFooter::deserialize(at);
  footer.offsets[3] += 1;
  footer.serialize(at);  // self-CRC stays valid
  EXPECT_THROW((void)decompress_range(stream, 3 * kGroupElems + 10,
                                      3 * kGroupElems + 50),
               format_error);
}

TEST(RangeIntegrity, CorruptPayloadOutsideCoveringGroupsKeepsLocality) {
  const auto clean = grouped_stream();
  const auto full = decompress_serial(clean);
  auto stream = clean;
  const auto spans =
      checksum_group_spans(stream, Header::deserialize(stream), kGroup);
  stream[spans[8].payload_begin] ^= 0x5A;
  const auto part = decompress_range(stream, 0, 100);
  EXPECT_EQ(part, std::vector<float>(full.begin(), full.begin() + 100));
  EXPECT_THROW((void)decompress_range(stream, 8 * kGroupElems,
                                      8 * kGroupElems + 1),
               format_error);
}

TEST(RangeIntegrity, ViewWindowsMustHoldWhatThePlanNeeds) {
  const auto stream = grouped_stream();
  const size_t nblocks = inspect_stream(stream).num_blocks;
  StreamView view;
  view.header = std::span(stream).first(Header::kSize);
  view.lengths = std::span(stream).subspan(lengths_offset(), nblocks);
  view.stream_bytes = stream.size();
  const RangePlan plan = plan_range(view, kGroupElems + 3, kGroupElems + 90);
  EXPECT_EQ(plan.cover_first, kGroup);
  EXPECT_EQ(plan.cover_last, 2 * kGroup);
  const auto payload = std::span(stream).subspan(payload_offset(nblocks));
  view.payload = payload.subspan(plan.payload_begin,
                                 plan.payload_end - plan.payload_begin);
  view.payload_start = plan.payload_begin;
  view.footer = std::span(stream).subspan(plan.footer_offset);
  const auto full = decompress_serial(stream);
  EXPECT_EQ(decompress_range(view, plan),
            std::vector<float>(full.begin() + kGroupElems + 3,
                               full.begin() + kGroupElems + 90));
  // One byte short of the covering groups, or a footer window that starts
  // past the footer: rejected, never read out of bounds.
  StreamView short_payload = view;
  short_payload.payload = view.payload.first(view.payload.size() - 1);
  EXPECT_THROW((void)decompress_range(short_payload, plan), format_error);
  StreamView short_footer = view;
  short_footer.footer = view.footer.subspan(1);
  EXPECT_THROW((void)decompress_range(short_footer, plan), format_error);
}

}  // namespace
}  // namespace szp::core
