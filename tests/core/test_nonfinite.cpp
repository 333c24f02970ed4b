// Non-finite input is rejected with a message that names NaN/Inf, on every
// backend and in both error modes; a bound too small for finite data keeps
// its own message.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "szp/core/serial.hpp"
#include "szp/engine/engine.hpp"

namespace szp {
namespace {

using engine::BackendKind;

std::string compress_error(BackendKind backend, core::ErrorMode mode,
                           double bound, const std::vector<float>& data) {
  engine::EngineConfig cfg;
  cfg.backend = backend;
  cfg.threads = 2;
  cfg.params.mode = mode;
  cfg.params.error_bound = bound;
  engine::Engine eng(cfg);
  try {
    (void)eng.compress(data);
  } catch (const format_error& e) {
    return e.what();
  }
  return "";
}

std::vector<float> field_with(float bad, size_t at) {
  std::vector<float> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<float>(i % 17) - 8;
  v[at] = bad;
  return v;
}

bool names_non_finite(const std::string& msg) {
  return msg.find("non-finite") != std::string::npos &&
         msg.find("NaN or Inf") != std::string::npos;
}

TEST(NonFiniteInput, RejectedWithItsOwnMessageEverywhere) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const BackendKind backend :
       {BackendKind::kSerial, BackendKind::kParallelHost,
        BackendKind::kDevice}) {
    for (const core::ErrorMode mode :
         {core::ErrorMode::kAbs, core::ErrorMode::kRel}) {
      for (const float bad : {nan, inf, -inf}) {
        for (const size_t at : {size_t{0}, size_t{517}, size_t{999}}) {
          const std::string msg =
              compress_error(backend, mode, 1e-3, field_with(bad, at));
          EXPECT_TRUE(names_non_finite(msg))
              << "backend " << static_cast<int>(backend) << " mode "
              << static_cast<int>(mode) << " value " << bad << " at " << at
              << ": \"" << msg << "\"";
        }
      }
    }
  }
}

TEST(NonFiniteInput, F64AndLegacyEntryPointsNameTheCause) {
  std::vector<double> v(300, 1.5);
  v[123] = std::numeric_limits<double>::quiet_NaN();
  core::Params p;
  p.mode = core::ErrorMode::kAbs;
  try {
    (void)core::compress_serial_f64(v, p);
    FAIL() << "NaN accepted";
  } catch (const format_error& e) {
    EXPECT_TRUE(names_non_finite(e.what())) << e.what();
  }
  p.mode = core::ErrorMode::kRel;
  std::vector<float> f(300, 1.5f);
  f[7] = -std::numeric_limits<float>::infinity();
  try {
    (void)core::exact_compressed_bytes(f, p);
    FAIL() << "-Inf accepted";
  } catch (const format_error& e) {
    EXPECT_TRUE(names_non_finite(e.what())) << e.what();
  }
}

TEST(NonFiniteInput, TooSmallBoundKeepsItsOwnMessage) {
  const std::vector<float> data = field_with(1e20f, 400);
  for (const BackendKind backend :
       {BackendKind::kSerial, BackendKind::kParallelHost,
        BackendKind::kDevice}) {
    const std::string msg =
        compress_error(backend, core::ErrorMode::kAbs, 1e-6, data);
    EXPECT_NE(msg.find("error bound too small"), std::string::npos) << msg;
    EXPECT_FALSE(names_non_finite(msg)) << msg;
  }
}

}  // namespace
}  // namespace szp
