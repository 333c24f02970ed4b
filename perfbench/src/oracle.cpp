// Output oracle. Every check runs outside the timers; a failed check
// counts against ok_frac and the run goes on.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "bench.hpp"
#include "szp/data/generators.hpp"
#include "szp/engine/engine.hpp"
#include "szp/metrics/error.hpp"

namespace perfbench {

bool same_bytes(const std::vector<szp::byte_t>& got,
                const std::vector<szp::byte_t>& want) {
  return got.size() == want.size() &&
         (got.empty() || std::memcmp(got.data(), want.data(), got.size()) == 0);
}

namespace {

/// One float ulp at |v|: the step the final rounding of x_hat to float
/// can add to the quantization error.
double ulp_of(float v) {
  const float a = std::fabs(v);
  return static_cast<double>(
      std::nextafter(a, std::numeric_limits<float>::infinity()) - a);
}

}  // namespace

bool within_guarantee(const std::vector<float>& original,
                      const std::vector<float>& decoded, double eb) {
  if (original.size() != decoded.size()) return false;
  for (size_t i = 0; i < original.size(); ++i) {
    const double err = std::fabs(static_cast<double>(original[i]) -
                                 static_cast<double>(decoded[i]));
    if (!(err <= eb + ulp_of(original[i]))) return false;  // NaN fails too
  }
  return true;
}

void Oracle::record_decode(const std::vector<float>& original,
                           const std::vector<float>& decoded, double eb) {
  ++strict_checked;
  if (original.size() == decoded.size()) {
    if (szp::metrics::error_bounded(original, decoded, eb)) ++strict_ok;
    double worst = 0;
    for (size_t i = 0; i < original.size(); ++i) {
      worst = std::max(worst, std::fabs(static_cast<double>(original[i]) -
                                        static_cast<double>(decoded[i])));
    }
    max_err_over_eb = std::max(max_err_over_eb, worst / eb);
  }
  record(within_guarantee(original, decoded, eb),
         "decode error exceeds eb + 1 ulp");
}

void Oracle::merge(const Oracle& other) {
  attempted += other.attempted;
  failed += other.failed;
  strict_checked += other.strict_checked;
  strict_ok += other.strict_ok;
  max_err_over_eb = std::max(max_err_over_eb, other.max_err_over_eb);
}

bool slice_equal(const std::vector<float>& full, size_t begin,
                 const std::vector<float>& got) {
  return begin <= full.size() && got.size() <= full.size() - begin &&
         std::equal(got.begin(), got.end(), full.begin() + begin);
}

bool oracle_self_test(std::string& detail) {
  const szp::core::Params params = codec_params();
  const szp::data::Field f =
      szp::data::particle_stream("selftest", 1u << 16, 12345, 7600.0, 130.0);
  const double eb = szp::core::resolve_eb(params, f.value_range());
  szp::engine::Engine eng(engine_config(szp::engine::BackendKind::kSerial));
  const std::vector<szp::byte_t> ref = eng.compress(f.span()).bytes;
  const std::vector<float> x = eng.decompress(ref);

  // Untampered outputs must pass.
  const bool clean = same_bytes(eng.compress(f.span()).bytes, ref) &&
                     within_guarantee(f.values, x, eb) &&
                     slice_equal(x, 100, {x.begin() + 100, x.begin() + 4196});
  if (!clean) {
    detail = "oracle rejected untampered output";
    return false;
  }

  // Tampered outputs must each fail: a stream with one payload bit
  // flipped (compared and decoded), a reconstruction pushed past the
  // bound at one element (by 1.5 eb, and by four ulps past the
  // guarantee), and a query slice off by one ulp.
  std::vector<szp::byte_t> bad = ref;
  bad[bad.size() / 2] ^= 0x10;
  bool decoded_ok = false;
  try {
    decoded_ok = within_guarantee(f.values, eng.decompress(bad), eb);
  } catch (const std::exception&) {
    decoded_ok = false;
  }
  std::vector<float> off = x;
  off[777] = static_cast<float>(f.values[777] + 1.5 * eb);
  std::vector<float> edge = x;
  float e = static_cast<float>(static_cast<double>(f.values[888]) + eb);
  for (int k = 0; k < 4; ++k) e = std::nextafter(e, 1e30f);
  edge[888] = e;
  std::vector<float> q(x.begin() + 100, x.begin() + 4196);
  q[5] = std::nextafter(q[5], 1e30f);
  if (same_bytes(bad, ref) || decoded_ok ||
      within_guarantee(f.values, off, eb) ||
      within_guarantee(f.values, edge, eb) || slice_equal(x, 100, q)) {
    detail = "oracle accepted a tampered output";
    return false;
  }

  // The tally counts a rejected decode as a failed verdict.
  Oracle tally;
  tally.quiet = true;
  tally.record_decode(f.values, x, eb);
  tally.record_decode(f.values, off, eb);
  if (tally.attempted != 2 || tally.failed != 1) {
    detail = "oracle tally missed a rejected decode";
    return false;
  }
  detail = "5 tampered outputs rejected, 3 clean accepted, tally counts 1/2";
  return true;
}

}  // namespace perfbench
