// Differential tests of the word-parallel stage kernels against plain
// bit-by-bit (and libm) references kept here: the bit-shuffle as 8x8
// transposes, direct packing, the branchless sign split, and the integer
// rounding of the quantizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "szp/core/host_codec.hpp"
#include "szp/core/stages.hpp"
#include "szp/util/bitio.hpp"
#include "szp/util/rng.hpp"

namespace szp::core {
namespace {

// ------------------------------------------------------------ references

void ref_bit_shuffle(const std::vector<std::uint32_t>& mags, unsigned f,
                     std::vector<byte_t>& out) {
  const size_t groups = div_ceil(mags.size(), size_t{8});
  out.assign(static_cast<size_t>(f) * groups, byte_t{0});
  for (unsigned k = 0; k < f; ++k) {
    for (size_t i = 0; i < mags.size(); ++i) {
      const auto bit = static_cast<byte_t>((mags[i] >> k) & 1u);
      out[k * groups + i / 8] |= static_cast<byte_t>(bit << (i % 8));
    }
  }
}

std::vector<std::uint32_t> ref_bit_unshuffle(const std::vector<byte_t>& in,
                                             unsigned f, size_t n) {
  const size_t groups = div_ceil(n, size_t{8});
  std::vector<std::uint32_t> mags(n, 0);
  for (unsigned k = 0; k < f; ++k) {
    for (size_t i = 0; i < n; ++i) {
      const std::uint32_t bit = (in[k * groups + i / 8] >> (i % 8)) & 1u;
      mags[i] |= bit << k;
    }
  }
  return mags;
}

std::vector<byte_t> ref_bit_pack(const std::vector<std::uint32_t>& mags,
                                 unsigned f) {
  BitWriter w;
  for (const std::uint32_t m : mags) w.put(m, f);
  std::vector<byte_t> packed = std::move(w).take();
  packed.resize(static_cast<size_t>(f) * div_ceil(mags.size(), size_t{8}),
                byte_t{0});
  return packed;
}

std::vector<std::uint32_t> random_mags(Rng& rng, size_t n, unsigned f,
                                       bool masked) {
  std::vector<std::uint32_t> mags(n);
  for (auto& m : mags) {
    m = static_cast<std::uint32_t>(rng.next_u64());
    if (masked) m = f == 32 ? m : m & ((1u << f) - 1);
  }
  return mags;
}

constexpr size_t kLengths[] = {8, 16, 24, 40, 64, 256};

// ------------------------------------------------------------ bit planes

TEST(StageKernels, BitShuffleMatchesBitLoopForEveryWidth) {
  Rng rng(11);
  for (const size_t L : kLengths) {
    for (unsigned f = 0; f <= 32; ++f) {
      for (const bool masked : {true, false}) {
        const auto mags = random_mags(rng, L, f, masked);
        std::vector<byte_t> want;
        ref_bit_shuffle(mags, f, want);
        // Sentinel bytes past F planes catch stray writes.
        std::vector<byte_t> got(want.size() + 16, byte_t{0xA5});
        bit_shuffle(mags, f, got);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << "L=" << L << " f=" << f << " masked=" << masked;
        for (size_t i = want.size(); i < got.size(); ++i) {
          ASSERT_EQ(got[i], 0xA5) << "L=" << L << " f=" << f;
        }
      }
    }
  }
}

TEST(StageKernels, BitUnshuffleMatchesBitLoopOnArbitraryPlanes) {
  Rng rng(12);
  for (const size_t L : kLengths) {
    for (unsigned f = 0; f <= 32; ++f) {
      // Arbitrary plane bytes: what a corrupt stream hands the decoder.
      std::vector<byte_t> planes(static_cast<size_t>(f) * L / 8);
      for (auto& b : planes) b = static_cast<byte_t>(rng.next_u64());
      std::vector<std::uint32_t> got(L, 0xDEADBEEFu);
      bit_unshuffle(planes, f, got);
      ASSERT_EQ(got, ref_bit_unshuffle(planes, f, L))
          << "L=" << L << " f=" << f;
    }
  }
}

TEST(StageKernels, ShuffleRoundTripsOnPartialGroups) {
  Rng rng(13);
  for (size_t n = 1; n <= 20; ++n) {
    const auto mags = random_mags(rng, n, 13, true);
    std::vector<byte_t> want;
    ref_bit_shuffle(mags, 13, want);
    std::vector<byte_t> got(want.size());
    bit_shuffle(mags, 13, got);
    EXPECT_EQ(got, want) << n;
    std::vector<std::uint32_t> back(n);
    bit_unshuffle(got, 13, back);
    EXPECT_EQ(back, mags) << n;
  }
}

TEST(StageKernels, BitPackMatchesBitWriterForEveryWidth) {
  Rng rng(14);
  for (const size_t L : kLengths) {
    for (unsigned f = 0; f <= 32; ++f) {
      const auto mags = random_mags(rng, L, f, false);
      const auto want = ref_bit_pack(mags, f);
      std::vector<byte_t> got(want.size(), byte_t{0xA5});
      bit_pack(mags, f, got);
      ASSERT_EQ(got, want) << "L=" << L << " f=" << f;
      std::vector<std::uint32_t> back(L, 0xDEADBEEFu);
      bit_unpack(got, f, back);
      BitReader r(want);
      for (size_t i = 0; i < L; ++i) {
        ASSERT_EQ(back[i], r.get(f)) << "L=" << L << " f=" << f << " i=" << i;
      }
    }
  }
  // Widths and sizes come from stream metadata in the baseline decoders.
  std::vector<std::uint32_t> mags(32);
  EXPECT_THROW(bit_unpack(std::vector<byte_t>(200), 33, mags), format_error);
  EXPECT_THROW(bit_unpack(std::vector<byte_t>(7), 2, mags), format_error);
}

// ------------------------------------------------------------ signs

TEST(StageKernels, SignSplitMatchesBranchyReference) {
  Rng rng(15);
  for (size_t n = 1; n <= 40; ++n) {
    std::vector<std::int32_t> in(n);
    for (auto& v : in) {
      v = static_cast<std::int32_t>(rng.next_below(1u << 31)) - (1 << 30);
    }
    in[0] = std::numeric_limits<std::int32_t>::min() + 1;
    std::vector<std::uint32_t> mags(n);
    std::vector<byte_t> signs(div_ceil(n, size_t{8}) + 1, byte_t{0xFF});
    split_signs(in, mags, signs);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(mags[i], static_cast<std::uint32_t>(std::llabs(in[i])));
      ASSERT_EQ((signs[i / 8] >> (i % 8)) & 1, in[i] < 0 ? 1 : 0);
    }
    for (size_t i = n; i < signs.size() * 8; ++i) {
      ASSERT_EQ((signs[i / 8] >> (i % 8)) & 1, 0) << "padding bit " << i;
    }
    std::vector<std::int32_t> back(n);
    apply_signs(mags, signs, back);
    EXPECT_EQ(back, in);
  }
}

// ------------------------------------------------------------ quantize

template <typename T>
void expect_llround(const std::vector<T>& in, double eb) {
  std::vector<std::int32_t> got(in.size());
  quantize(std::span<const T>(in), eb, got);
  const double inv = 1.0 / (2.0 * eb);
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(got[i], std::llround(static_cast<double>(in[i]) * inv))
        << "x=" << in[i] << " eb=" << eb;
  }
}

TEST(StageKernels, QuantizeRoundsExactTiesAwayFromZero) {
  // eb = 0.5 makes the bin 1: every k + 0.5 is an exact tie.
  std::vector<float> ties;
  for (int k = -40; k <= 40; ++k) ties.push_back(static_cast<float>(k) + 0.5f);
  expect_llround(ties, 0.5);
  std::vector<std::int32_t> q(ties.size());
  quantize(ties, 0.5, q);
  EXPECT_EQ(q.front(), -40);  // -39.5 -> -40
  EXPECT_EQ(q.back(), 41);    //  40.5 ->  41
  // eb = 0.25 doubles: x = k/2 + 0.25 scales to k + 0.5.
  std::vector<double> ties64;
  for (int k = -40; k <= 40; ++k) ties64.push_back(k * 0.5 + 0.25);
  expect_llround(ties64, 0.25);
}

TEST(StageKernels, QuantizeMatchesLlroundOnEdgeValues) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> edge = {
      0.0f, -0.0f, denorm, -denorm, denorm * 3, 1e-40f, -1e-40f,
      std::nextafter(0.5f, 0.0f), std::nextafter(0.5f, 1.0f),
      -std::nextafter(0.5f, 0.0f), -std::nextafter(0.5f, 1.0f)};
  expect_llround(edge, 0.5);
  // A bound at the denormal scale lifts denormals into the integers.
  expect_llround(std::vector<float>{0.0f, -0.0f, denorm, -denorm, denorm * 3,
                                    1e-40f, -1e-40f},
                 1e-45);
  std::vector<std::int32_t> q(2);
  quantize(std::vector<float>{-0.0f, -denorm}, 0.5, q);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 0);
}

TEST(StageKernels, QuantizeMatchesLlroundOnRandomF32AndF64) {
  Rng rng(16);
  std::vector<float> f32(5000);
  std::vector<double> f64(5000);
  for (size_t i = 0; i < f32.size(); ++i) {
    // Up to 2^10, so even eb = 1e-6 stays under the 2^29 limit.
    const double scale =
        std::ldexp(1.0, static_cast<int>(rng.next_below(31)) - 20);
    f64[i] = rng.uniform(-1, 1) * scale;
    f32[i] = static_cast<float>(f64[i]);
  }
  for (const double eb : {1e-3, 0.37, 1e-6}) {
    expect_llround(f32, eb);
    expect_llround(f64, eb);
  }
}

TEST(StageKernels, QuantizeLimitIsTwoToTheTwentyNine) {
  // eb = 0.5: the quantization integer is round(x) itself.
  const double limit = std::ldexp(1.0, 29);
  for (const double x : {std::nextafter(limit, 0.0), limit - 0.5,
                         -std::nextafter(limit, 0.0)}) {
    expect_llround(std::vector<double>{x}, 0.5);
  }
  for (const double x : {limit, std::nextafter(limit, 2 * limit), -limit,
                         1e300}) {
    std::vector<std::int32_t> q(1);
    try {
      quantize(std::vector<double>{x}, 0.5, q);
      FAIL() << "no throw for " << x;
    } catch (const format_error& e) {
      EXPECT_NE(std::string(e.what()).find("too small"), std::string::npos)
          << e.what();
    }
  }
  // The f32 path throws the same way.
  std::vector<std::int32_t> q(1);
  EXPECT_THROW(quantize(std::vector<float>{536870912.0f}, 0.5, q),
               format_error);
  quantize(std::vector<float>{536870848.0f}, 0.5, q);  // largest f32 < 2^29
  EXPECT_EQ(q[0], 536870848);
}

// ------------------------------------------------------------ value range

template <typename T>
void expect_minmax_range(const std::vector<T>& v) {
  const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
  const double want = static_cast<double>(*mx) - static_cast<double>(*mn);
  const double got = value_range_of(std::span<const T>(v));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "n=" << v.size() << " got " << got << " want " << want;
}

TEST(StageKernels, ValueRangeMatchesMinmaxElementBitForBit) {
  Rng rng(17);
  for (size_t n = 1; n <= 70; ++n) {
    std::vector<float> f(n);
    std::vector<double> d(n);
    for (size_t i = 0; i < n; ++i) {
      d[i] = rng.uniform(-100, 100);
      f[i] = static_cast<float>(d[i]);
    }
    expect_minmax_range(f);
    expect_minmax_range(d);
  }
  // Zero ranges keep minmax_element's sign: last maximum minus first minimum.
  for (const std::vector<float>& v :
       {std::vector<float>{0.0f, -0.0f}, std::vector<float>{-0.0f, 0.0f},
        std::vector<float>(33, -0.0f), std::vector<float>(17, 3.0f)}) {
    expect_minmax_range(v);
  }
  expect_minmax_range(std::vector<double>{-0.0, 0.0, 0.0, -0.0});
}

}  // namespace
}  // namespace szp::core
