// Golden digests of the stream and of its reconstruction over the codec's
// configuration matrix: f32/f64 x ABS/REL x L in {8, 32, 64, 256} x
// Lorenzo off/1/2 x outlier mode off/on x bit-shuffle on/off x checksum
// groups 0 (v1) / default (v2). Every input length leaves a partial tail
// block. The table pins CRC32C + length of each compressed stream and the
// CRC32C of each decoded array, so any byte change in the encoder or any
// bit change in the decoder fails here, whichever build produced it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "szp/core/random_access.hpp"
#include "szp/core/serial.hpp"
#include "szp/util/crc32c.hpp"
#include "szp/util/rng.hpp"

namespace szp::core {
namespace {

struct Digest {
  std::uint32_t stream_bytes;
  std::uint32_t stream_crc;
  std::uint32_t recon_crc;
};

// Captured from the encoder built on the bit-by-bit stage loops, before
// the word-parallel block codec replaced them. Entries follow the
// enumeration order of for_each_case, two per line.
constexpr Digest kGolden[] = {
    {527, 0x200be323, 0x91888e51}, {555, 0xa4a12cb4, 0x91888e51},
    {527, 0x12afe189, 0x91888e51}, {555, 0xc3b5a451, 0x91888e51},
    {518, 0x1bfaa4d7, 0x91888e51}, {546, 0xb8397791, 0x91888e51},
    {518, 0x8d471a07, 0x91888e51}, {546, 0x96a1f02b, 0x91888e51},
    {506, 0xa3ad8e69, 0x91888e51}, {534, 0xcaeb8f00, 0x91888e51},
    {506, 0x31cac9fe, 0x91888e51}, {534, 0x5969e55a, 0x91888e51},
    {502, 0xabb378a3, 0x91888e51}, {530, 0xc06914fb, 0x91888e51},
    {502, 0x1ba5cb6a, 0x91888e51}, {530, 0x8ad069f2, 0x91888e51},
    {517, 0xc4dbb4e0, 0x91888e51}, {545, 0x32151f35, 0x91888e51},
    {517, 0x4b499321, 0x91888e51}, {545, 0x5f70895d, 0x91888e51},
    {513, 0xa8e62864, 0x91888e51}, {541, 0xb142a42b, 0x91888e51},
    {513, 0xc8b7f26c, 0x91888e51}, {541, 0xc6ab4bdb, 0x91888e51},
    {2238, 0x140cbc89, 0xa9464d4c}, {2266, 0xc3b2b458, 0xa9464d4c},
    {2238, 0xf2a0edb2, 0xa9464d4c}, {2266, 0xd0842d28, 0xa9464d4c},
    {1948, 0xde610a52, 0xa9464d4c}, {1976, 0x993ca028, 0xa9464d4c},
    {1948, 0xbbed9329, 0xa9464d4c}, {1976, 0xc9cad93b, 0xa9464d4c},
    {2138, 0xd1350a44, 0xa9464d4c}, {2166, 0x3db34e65, 0xa9464d4c},
    {2138, 0x53ab98ce, 0xa9464d4c}, {2166, 0x07d37d6a, 0xa9464d4c},
    {2090, 0xa23be7d2, 0xa9464d4c}, {2118, 0x48217e40, 0xa9464d4c},
    {2090, 0x852e61d5, 0xa9464d4c}, {2118, 0x0b0a57a7, 0xa9464d4c},
    {2202, 0x03c70678, 0xa9464d4c}, {2230, 0x373d7685, 0xa9464d4c},
    {2202, 0x87096237, 0xa9464d4c}, {2230, 0xbdd4ab76, 0xa9464d4c},
    {2202, 0xea4b4b57, 0xa9464d4c}, {2230, 0x373d7685, 0xa9464d4c},
    {2202, 0x6e852f18, 0xa9464d4c}, {2230, 0xbdd4ab76, 0xa9464d4c},
    {5142, 0x2fb274c7, 0xc8974454}, {5170, 0x0a53734d, 0xc8974454},
    {5142, 0x78fa9bd2, 0xc8974454}, {5170, 0xc1d81184, 0xc8974454},
    {4087, 0xfecc385d, 0xc8974454}, {4115, 0xd82bba33, 0xc8974454},
    {4087, 0x3c8e53f5, 0xc8974454}, {4115, 0x4011f9c6, 0xc8974454},
    {5078, 0x7ff4d6c7, 0xc8974454}, {5106, 0x6b27591c, 0xc8974454},
    {5078, 0x12c0f23f, 0xc8974454}, {5106, 0x03469c51, 0xc8974454},
    {4891, 0x7b9ebfe7, 0xc8974454}, {4919, 0x75bba4d9, 0xc8974454},
    {4891, 0xcabf875a, 0xc8974454}, {4919, 0xeda7c4fd, 0xc8974454},
    {5262, 0x516af3bd, 0xc8974454}, {5290, 0x1380613d, 0xc8974454},
    {5262, 0x45622561, 0xc8974454}, {5290, 0x3a474493, 0xc8974454},
    {5196, 0xb3bbe4f3, 0xc8974454}, {5224, 0x184b4690, 0xc8974454},
    {5196, 0xd569094c, 0xc8974454}, {5224, 0xedd30a72, 0xc8974454},
    {22886, 0xa8b70dec, 0x3d1e2772}, {22914, 0xa69d906b, 0x3d1e2772},
    {22886, 0xd4e8f066, 0x3d1e2772}, {22914, 0x0045b55c, 0x3d1e2772},
    {22576, 0x648824e3, 0x3d1e2772}, {22604, 0x42f44b9b, 0x3d1e2772},
    {22576, 0xc8eb3ad7, 0x3d1e2772}, {22604, 0x63e7755d, 0x3d1e2772},
    {22886, 0x4f0ef2e9, 0x3d1e2772}, {22914, 0x6ffe90f1, 0x3d1e2772},
    {22886, 0x7050aac9, 0x3d1e2772}, {22914, 0x0cd20688, 0x3d1e2772},
    {22886, 0x46a729f3, 0x3d1e2772}, {22914, 0x6ffe90f1, 0x3d1e2772},
    {22886, 0x79f971d3, 0x3d1e2772}, {22914, 0x0cd20688, 0x3d1e2772},
    {23878, 0x57f963c5, 0x3d1e2772}, {23906, 0x5baf1db9, 0x3d1e2772},
    {23878, 0x3977b417, 0x3d1e2772}, {23906, 0xadd4c248, 0x3d1e2772},
    {23824, 0xf76c6135, 0x3d1e2772}, {23852, 0x8afb1997, 0x3d1e2772},
    {23824, 0xa232f59b, 0x3d1e2772}, {23852, 0x10457ba3, 0x3d1e2772},
    {223, 0x30720886, 0xb2ca0462}, {251, 0xbabce55c, 0xb2ca0462},
    {223, 0xcc3c0692, 0xb2ca0462}, {251, 0xb3cef934, 0xb2ca0462},
    {215, 0x59d785ce, 0xb2ca0462}, {243, 0x151626fb, 0xb2ca0462},
    {215, 0x773ad237, 0xb2ca0462}, {243, 0xd31e6ff2, 0xb2ca0462},
    {209, 0x108bb737, 0xb2ca0462}, {237, 0x34559694, 0xb2ca0462},
    {209, 0x8b1f91ce, 0xb2ca0462}, {237, 0x2caea5d2, 0xb2ca0462},
    {205, 0xb8f6038c, 0xb2ca0462}, {233, 0xb0327615, 0xb2ca0462},
    {205, 0xdb9d2e62, 0xb2ca0462}, {233, 0x87a1a9b0, 0xb2ca0462},
    {213, 0xc069e80e, 0xb2ca0462}, {241, 0x3bd70771, 0xb2ca0462},
    {213, 0x94383738, 0xb2ca0462}, {241, 0x3ea20caa, 0xb2ca0462},
    {210, 0x9112ebb8, 0xb2ca0462}, {238, 0x31e2c081, 0xb2ca0462},
    {210, 0x1d1af998, 0xb2ca0462}, {238, 0x96532000, 0xb2ca0462},
    {894, 0x62b6b682, 0x8bd4c655}, {922, 0x54d00751, 0x8bd4c655},
    {894, 0x3371cc44, 0x8bd4c655}, {922, 0x6e25c5c3, 0x8bd4c655},
    {604, 0x3edb9c66, 0x8bd4c655}, {632, 0x39b20a67, 0x8bd4c655},
    {604, 0xfa821529, 0x8bd4c655}, {632, 0xbaf77930, 0x8bd4c655},
    {814, 0x43d75468, 0x8bd4c655}, {842, 0xa239815c, 0x8bd4c655},
    {814, 0x371288d3, 0x8bd4c655}, {842, 0x97d83854, 0x8bd4c655},
    {787, 0x04120764, 0x8bd4c655}, {815, 0x1f695332, 0x8bd4c655},
    {787, 0x0ba7c9a0, 0x8bd4c655}, {815, 0x8867162e, 0x8bd4c655},
    {890, 0x36c42d05, 0x8bd4c655}, {918, 0x5b0c4533, 0x8bd4c655},
    {890, 0x4a318ba6, 0x8bd4c655}, {918, 0x68f81d35, 0x8bd4c655},
    {890, 0x8dbbe828, 0x8bd4c655}, {918, 0x5b0c4533, 0x8bd4c655},
    {890, 0xf14e4e8b, 0x8bd4c655}, {918, 0x68f81d35, 0x8bd4c655},
    {2430, 0x997608aa, 0x946da811}, {2458, 0x5711845c, 0x946da811},
    {2430, 0xf93333c7, 0x946da811}, {2458, 0x93ef9947, 0x946da811},
    {1388, 0xdb925310, 0x946da811}, {1416, 0x7defa4f0, 0x946da811},
    {1388, 0xd832e11b, 0x946da811}, {1416, 0xcbe92b63, 0x946da811},
    {2374, 0x297af666, 0x946da811}, {2402, 0x67a4223c, 0x946da811},
    {2374, 0xc7acaca6, 0x946da811}, {2402, 0x28328348, 0x946da811},
    {2238, 0x2ccd9c09, 0x946da811}, {2266, 0x422cc251, 0x946da811},
    {2238, 0x04d5923f, 0x946da811}, {2266, 0x1a0260b5, 0x946da811},
    {2550, 0x58229d4f, 0x946da811}, {2578, 0xdaf0ec33, 0x946da811},
    {2550, 0x97a40935, 0x946da811}, {2578, 0x0635a30c, 0x946da811},
    {2490, 0x14e47263, 0x946da811}, {2518, 0x2e84f548, 0x946da811},
    {2490, 0x234f5da5, 0x946da811}, {2518, 0x34a8a9e8, 0x946da811},
    {11974, 0x9bd088af, 0x50be09eb}, {12002, 0xbd7123c9, 0x50be09eb},
    {11974, 0x9bf1d017, 0x50be09eb}, {12002, 0x3c072205, 0x50be09eb},
    {11664, 0x010be374, 0x50be09eb}, {11692, 0xc1a107e8, 0x50be09eb},
    {11664, 0x2b6dcf08, 0x50be09eb}, {11692, 0x6acc90b6, 0x50be09eb},
    {11974, 0x82c9ede8, 0x50be09eb}, {12002, 0x9a867e02, 0x50be09eb},
    {11974, 0xb4ddb45e, 0x50be09eb}, {12002, 0xb0359e4d, 0x50be09eb},
    {11974, 0x26dbc9e4, 0x50be09eb}, {12002, 0x9a867e02, 0x50be09eb},
    {11974, 0x10cf9052, 0x50be09eb}, {12002, 0xb0359e4d, 0x50be09eb},
    {12966, 0xb4ff531d, 0x50be09eb}, {12994, 0x5e41c984, 0x50be09eb},
    {12966, 0xc85c8004, 0x50be09eb}, {12994, 0x1fcb4696, 0x50be09eb},
    {12912, 0x70676b5c, 0x50be09eb}, {12940, 0xc44329cc, 0x50be09eb},
    {12912, 0x6243a883, 0x50be09eb}, {12940, 0x9ce85076, 0x50be09eb},
    {527, 0xc13b0b17, 0x240b7b62}, {555, 0xa4a12cb4, 0x240b7b62},
    {527, 0xf39f09bd, 0x240b7b62}, {555, 0xc3b5a451, 0x240b7b62},
    {518, 0xb1054932, 0x240b7b62}, {546, 0xb8397791, 0x240b7b62},
    {518, 0x27b8f7e2, 0x240b7b62}, {546, 0x96a1f02b, 0x240b7b62},
    {506, 0xb900662f, 0x240b7b62}, {534, 0xcaeb8f00, 0x240b7b62},
    {506, 0x2b6721b8, 0x240b7b62}, {534, 0x5969e55a, 0x240b7b62},
    {502, 0x993642b0, 0x240b7b62}, {530, 0xc06914fb, 0x240b7b62},
    {502, 0x2920f179, 0x240b7b62}, {530, 0x8ad069f2, 0x240b7b62},
    {517, 0x5fe040c8, 0x240b7b62}, {545, 0x32151f35, 0x240b7b62},
    {517, 0xd0726709, 0x240b7b62}, {545, 0x5f70895d, 0x240b7b62},
    {513, 0x98371a2c, 0x240b7b62}, {541, 0xb142a42b, 0x240b7b62},
    {513, 0xf866c024, 0x240b7b62}, {541, 0xc6ab4bdb, 0x240b7b62},
    {2238, 0xd2fc6a45, 0xb7ab4928}, {2266, 0xc3b2b458, 0xb7ab4928},
    {2238, 0x34503b7e, 0xb7ab4928}, {2266, 0xd0842d28, 0xb7ab4928},
    {1948, 0xebce345e, 0xb7ab4928}, {1976, 0x993ca028, 0xb7ab4928},
    {1948, 0x8e42ad25, 0xb7ab4928}, {1976, 0xc9cad93b, 0xb7ab4928},
    {2138, 0x299f9559, 0xb7ab4928}, {2166, 0x3db34e65, 0xb7ab4928},
    {2138, 0xab0107d3, 0xb7ab4928}, {2166, 0x07d37d6a, 0xb7ab4928},
    {2090, 0x0be4141b, 0xb7ab4928}, {2118, 0x48217e40, 0xb7ab4928},
    {2090, 0x2cf1921c, 0xb7ab4928}, {2118, 0x0b0a57a7, 0xb7ab4928},
    {2202, 0xf5f71b97, 0xb7ab4928}, {2230, 0x373d7685, 0xb7ab4928},
    {2202, 0x71397fd8, 0xb7ab4928}, {2230, 0xbdd4ab76, 0xb7ab4928},
    {2202, 0x1c7b56b8, 0xb7ab4928}, {2230, 0x373d7685, 0xb7ab4928},
    {2202, 0x98b532f7, 0xb7ab4928}, {2230, 0xbdd4ab76, 0xb7ab4928},
    {5142, 0xdeac04fa, 0xf25c24d9}, {5170, 0x73fd309d, 0xf25c24d9},
    {5142, 0x8330b7cd, 0xf25c24d9}, {5170, 0xdcadd518, 0xf25c24d9},
    {4087, 0x06c13b71, 0xf25c24d9}, {4115, 0x933baf0a, 0xf25c24d9},
    {4087, 0x111d6f49, 0xf25c24d9}, {4115, 0x1d276610, 0xf25c24d9},
    {5078, 0x7c320316, 0xf25c24d9}, {5106, 0x042f93dd, 0xf25c24d9},
    {5078, 0x6505bbaa, 0xf25c24d9}, {5106, 0x44f56aca, 0xf25c24d9},
    {4891, 0x983e10b8, 0xf25c24d9}, {4919, 0x16912f1e, 0xf25c24d9},
    {4891, 0xb24c0e03, 0xf25c24d9}, {4919, 0x35bb42a8, 0xf25c24d9},
    {5262, 0x03942174, 0xf25c24d9}, {5290, 0x294ede5a, 0xf25c24d9},
    {5262, 0x6fc0218b, 0xf25c24d9}, {5290, 0x251f0d28, 0xf25c24d9},
    {5196, 0xb10c544d, 0xf25c24d9}, {5224, 0x3de0a359, 0xf25c24d9},
    {5196, 0xcd8b5fda, 0xf25c24d9}, {5224, 0x7a02a903, 0xf25c24d9},
    {22886, 0x151718e6, 0xba06e0e1}, {22914, 0xe9fcbe94, 0xba06e0e1},
    {22886, 0x86e2221e, 0xba06e0e1}, {22914, 0x4e3c91f2, 0xba06e0e1},
    {22576, 0x822df478, 0xba06e0e1}, {22604, 0x388c7c2a, 0xba06e0e1},
    {22576, 0x36ad1bd6, 0xba06e0e1}, {22604, 0xf7274a2e, 0xba06e0e1},
    {22886, 0x08f0e9ff, 0xba06e0e1}, {22914, 0x64ccd2aa, 0xba06e0e1},
    {22886, 0x0587a3ba, 0xba06e0e1}, {22914, 0xf5783992, 0xba06e0e1},
    {22886, 0x015932e5, 0xba06e0e1}, {22914, 0x64ccd2aa, 0xba06e0e1},
    {22886, 0x0c2e78a0, 0xba06e0e1}, {22914, 0xf5783992, 0xba06e0e1},
    {23878, 0x21b7543a, 0xba06e0e1}, {23906, 0xbc83478c, 0xba06e0e1},
    {23878, 0x55db9999, 0xba06e0e1}, {23906, 0xa5deea3f, 0xba06e0e1},
    {23824, 0xc57caea9, 0xba06e0e1}, {23852, 0xf9c6f651, 0xba06e0e1},
    {23824, 0x9e46fb12, 0xba06e0e1}, {23852, 0x8ec8dbb4, 0xba06e0e1},
    {223, 0x94a27aec, 0xdbb3c30a}, {251, 0xbabce55c, 0xdbb3c30a},
    {223, 0x68ec74f8, 0xdbb3c30a}, {251, 0xb3cef934, 0xdbb3c30a},
    {215, 0x60f584bb, 0xdbb3c30a}, {243, 0x151626fb, 0xdbb3c30a},
    {215, 0x4e18d342, 0xdbb3c30a}, {243, 0xd31e6ff2, 0xdbb3c30a},
    {209, 0xa4fa7c66, 0xdbb3c30a}, {237, 0x34559694, 0xdbb3c30a},
    {209, 0x3f6e5a9f, 0xdbb3c30a}, {237, 0x2caea5d2, 0xdbb3c30a},
    {205, 0x66924e63, 0xdbb3c30a}, {233, 0xb0327615, 0xdbb3c30a},
    {205, 0x05f9638d, 0xdbb3c30a}, {233, 0x87a1a9b0, 0xdbb3c30a},
    {213, 0x18a70c66, 0xdbb3c30a}, {241, 0x3bd70771, 0xdbb3c30a},
    {213, 0x4cf6d350, 0xdbb3c30a}, {241, 0x3ea20caa, 0xdbb3c30a},
    {210, 0x32e8c3a3, 0xdbb3c30a}, {238, 0x31e2c081, 0xdbb3c30a},
    {210, 0xbee0d183, 0xdbb3c30a}, {238, 0x96532000, 0xdbb3c30a},
    {894, 0x82f2ce96, 0x1446ac43}, {922, 0x54d00751, 0x1446ac43},
    {894, 0xd335b450, 0x1446ac43}, {922, 0x6e25c5c3, 0x1446ac43},
    {604, 0x1ead76db, 0x1446ac43}, {632, 0x39b20a67, 0x1446ac43},
    {604, 0xdaf4ff94, 0x1446ac43}, {632, 0xbaf77930, 0x1446ac43},
    {814, 0x0aac0a3c, 0x1446ac43}, {842, 0xa239815c, 0x1446ac43},
    {814, 0x7e69d687, 0x1446ac43}, {842, 0x97d83854, 0x1446ac43},
    {787, 0x2065506d, 0x1446ac43}, {815, 0x1f695332, 0x1446ac43},
    {787, 0x2fd09ea9, 0x1446ac43}, {815, 0x8867162e, 0x1446ac43},
    {890, 0x302488fc, 0x1446ac43}, {918, 0x5b0c4533, 0x1446ac43},
    {890, 0x4cd12e5f, 0x1446ac43}, {918, 0x68f81d35, 0x1446ac43},
    {890, 0x8b5b4dd1, 0x1446ac43}, {918, 0x5b0c4533, 0x1446ac43},
    {890, 0xf7aeeb72, 0x1446ac43}, {918, 0x68f81d35, 0x1446ac43},
    {2430, 0xe72a115c, 0xc22287ea}, {2458, 0x5711845c, 0xc22287ea},
    {2430, 0x876f2a31, 0xc22287ea}, {2458, 0x93ef9947, 0xc22287ea},
    {1388, 0x6eebdc62, 0xc22287ea}, {1416, 0x7defa4f0, 0xc22287ea},
    {1388, 0x6d4b6e69, 0xc22287ea}, {1416, 0xcbe92b63, 0xc22287ea},
    {2374, 0x65dc63d4, 0xc22287ea}, {2402, 0x67a4223c, 0xc22287ea},
    {2374, 0x8b0a3914, 0xc22287ea}, {2402, 0x28328348, 0xc22287ea},
    {2238, 0xb2008104, 0xc22287ea}, {2266, 0x422cc251, 0xc22287ea},
    {2238, 0x9a188f32, 0xc22287ea}, {2266, 0x1a0260b5, 0xc22287ea},
    {2550, 0xbbb002a6, 0xc22287ea}, {2578, 0xdaf0ec33, 0xc22287ea},
    {2550, 0x743696dc, 0xc22287ea}, {2578, 0x0635a30c, 0xc22287ea},
    {2490, 0x8371a4ef, 0xc22287ea}, {2518, 0x2e84f548, 0xc22287ea},
    {2490, 0xb4da8b29, 0xc22287ea}, {2518, 0x34a8a9e8, 0xc22287ea},
    {11974, 0x0a91fba4, 0x8fa61e70}, {12002, 0xbd7123c9, 0x8fa61e70},
    {11974, 0x0ab0a31c, 0x8fa61e70}, {12002, 0x3c072205, 0x8fa61e70},
    {11664, 0xfea84ce9, 0x8fa61e70}, {11692, 0xc1a107e8, 0x8fa61e70},
    {11664, 0xd4ce6095, 0x8fa61e70}, {11692, 0x6acc90b6, 0x8fa61e70},
    {11974, 0x13889ee3, 0x8fa61e70}, {12002, 0x9a867e02, 0x8fa61e70},
    {11974, 0x259cc755, 0x8fa61e70}, {12002, 0xb0359e4d, 0x8fa61e70},
    {11974, 0xb79abaef, 0x8fa61e70}, {12002, 0x9a867e02, 0x8fa61e70},
    {11974, 0x818ee359, 0x8fa61e70}, {12002, 0xb0359e4d, 0x8fa61e70},
    {12966, 0x46d606e9, 0x8fa61e70}, {12994, 0x5e41c984, 0x8fa61e70},
    {12966, 0x3a75d5f0, 0x8fa61e70}, {12994, 0x1fcb4696, 0x8fa61e70},
    {12912, 0xb8efd852, 0x8fa61e70}, {12940, 0xc44329cc, 0x8fa61e70},
    {12912, 0xaacb1b8d, 0x8fa61e70}, {12940, 0x9ce85076, 0x8fa61e70},
};

/// A random walk with a run of exact zeros (zero blocks for every L) and
/// periodic large spikes (outlier blocks). Integer-derived arithmetic only,
/// so the input is the same on every platform.
std::vector<double> make_values(size_t n) {
  Rng rng(0x5EED);
  std::vector<double> v(n);
  double walk = 0;
  for (size_t i = 0; i < n; ++i) {
    walk += rng.uniform(-0.5, 0.5);
    v[i] = walk * 8.0 + rng.uniform(-0.01, 0.01);
    if (i % 97 == 13) v[i] += (i % 2 == 0) ? 5000.0 : -5000.0;
  }
  for (size_t i = n / 3; i < n / 3 + n / 5; ++i) v[i] = 0;
  return v;
}

template <typename T>
std::uint32_t crc_of(const std::vector<T>& v) {
  return crc32c(std::span<const byte_t>(
      reinterpret_cast<const byte_t*>(v.data()), v.size() * sizeof(T)));
}

struct Case {
  bool f64;
  Params params;
  std::string label;
};

template <typename Fn>
void for_each_case(Fn&& fn) {
  for (const bool f64 : {false, true}) {
    for (const ErrorMode mode : {ErrorMode::kAbs, ErrorMode::kRel}) {
      for (const unsigned L : {8u, 32u, 64u, 256u}) {
        for (const unsigned lorenzo : {0u, 1u, 2u}) {
          for (const bool outlier : {false, true}) {
            for (const bool shuffle : {true, false}) {
              for (const unsigned groups : {0u, kChecksumGroupBlocks}) {
                Case c{f64, {}, {}};
                c.params.mode = mode;
                c.params.error_bound = mode == ErrorMode::kAbs ? 1e-3 : 2e-4;
                c.params.block_len = L;
                c.params.lorenzo = lorenzo > 0;
                c.params.lorenzo_layers = lorenzo == 2 ? 2 : 1;
                c.params.outlier_mode = outlier;
                c.params.bit_shuffle = shuffle;
                c.params.checksum_group_blocks = groups;
                c.label = std::string(f64 ? "f64" : "f32") +
                          (mode == ErrorMode::kAbs ? " abs" : " rel") +
                          " L" + std::to_string(L) + " lorenzo" +
                          std::to_string(lorenzo) + " outlier" +
                          std::to_string(outlier) + " shuffle" +
                          std::to_string(shuffle) + " groups" +
                          std::to_string(groups);
                fn(c);
              }
            }
          }
        }
      }
    }
  }
}

/// 37 full blocks plus a tail of L/2 + 3 elements.
size_t length_for(unsigned L) { return size_t{37} * L + L / 2 + 3; }

Digest digest_of(const Case& c) {
  const std::vector<double> v = make_values(length_for(c.params.block_len));
  Digest d{};
  std::vector<byte_t> stream;
  if (c.f64) {
    stream = compress_serial_f64(v, c.params);
    d.recon_crc = crc_of(decompress_serial_f64(stream));
  } else {
    const std::vector<float> f(v.begin(), v.end());
    stream = compress_serial(f, c.params);
    const std::vector<float> recon = decompress_serial(stream);
    d.recon_crc = crc_of(recon);
    // The range decoder shares the block decode; it must agree with the
    // full decode on a window that starts and ends mid-block.
    const size_t lo = 5, hi = recon.size() - 5;
    const std::vector<float> window = decompress_range(stream, lo, hi);
    EXPECT_TRUE(std::equal(window.begin(), window.end(), recon.begin() + lo))
        << c.label;
  }
  d.stream_bytes = static_cast<std::uint32_t>(stream.size());
  d.stream_crc = crc32c(stream);
  return d;
}

TEST(GoldenDigests, EveryConfigurationMatchesItsPinnedStreamAndDecode) {
  constexpr size_t kCases = sizeof(kGolden) / sizeof(kGolden[0]);
  size_t i = 0;
  for_each_case([&](const Case& c) {
    const Digest d = digest_of(c);
    ASSERT_LT(i, kCases) << "golden table is shorter than the matrix";
    EXPECT_EQ(d.stream_bytes, kGolden[i].stream_bytes) << c.label;
    EXPECT_EQ(d.stream_crc, kGolden[i].stream_crc) << c.label;
    EXPECT_EQ(d.recon_crc, kGolden[i].recon_crc) << c.label;
    ++i;
  });
  EXPECT_EQ(i, kCases);
}

}  // namespace
}  // namespace szp::core
