#include "szp/core/random_access.hpp"

#include <algorithm>

#include "szp/core/block_codec.hpp"

namespace szp::core {

namespace {

struct RangePlan {
  Header header;
  size_t first_block = 0;
  size_t last_block = 0;   // exclusive
  size_t payload_base = 0; // stream offset of the first covered payload
  size_t payload_bytes = 0;
};

RangePlan plan_range(std::span<const byte_t> stream, size_t begin,
                     size_t end) {
  RangePlan plan;
  plan.header = Header::deserialize(stream);
  const size_t n = plan.header.num_elements;
  if (begin > end || end > n) {
    throw format_error("decompress_range: range out of bounds");
  }
  const unsigned L = plan.header.block_len;
  const size_t nblocks = num_blocks(n, L);
  if (stream.size() < payload_offset(nblocks)) {
    throw format_error("decompress_range: truncated length area");
  }
  plan.first_block = begin / L;
  plan.last_block = begin == end ? plan.first_block : div_ceil(end, size_t{L});

  // Prefix-sum the length bytes up to the first covered block, then the
  // covered span; the tail of the stream is only touched for integrity
  // verification of v2 streams.
  size_t off = 0;
  for (size_t b = 0; b < plan.first_block; ++b) {
    const std::uint8_t lb = stream[lengths_offset() + b];
    if (!valid_length_byte(lb)) {
      throw format_error("decompress_range: invalid length byte");
    }
    off += block_payload_bytes(lb, L, plan.header.zero_block_bypass());
  }
  plan.payload_base = payload_offset(nblocks) + off;
  for (size_t b = plan.first_block; b < plan.last_block; ++b) {
    const std::uint8_t lb = stream[lengths_offset() + b];
    if (!valid_length_byte(lb)) {
      throw format_error("decompress_range: invalid length byte");
    }
    plan.payload_bytes +=
        block_payload_bytes(lb, L, plan.header.zero_block_bypass());
  }
  if (plan.payload_base + plan.payload_bytes > stream.size()) {
    throw format_error("decompress_range: truncated payload");
  }
  // Random access keeps its locality: only the checksum groups covering
  // [first_block, last_block) are CRC-verified (plus the footer itself).
  verify_checksums(stream, plan.header, plan.first_block, plan.last_block);
  return plan;
}

}  // namespace

std::vector<float> decompress_range(std::span<const byte_t> stream,
                                    size_t begin, size_t end) {
  const RangePlan plan = plan_range(stream, begin, end);
  const Header& h = plan.header;
  const unsigned L = h.block_len;

  std::vector<float> out(end - begin, 0.0f);
  BlockScratch scratch;

  size_t off = plan.payload_base;
  for (size_t b = plan.first_block; b < plan.last_block; ++b) {
    const std::uint8_t lb = stream[lengths_offset() + b];
    const size_t cl = block_payload_bytes(lb, L, h.zero_block_bypass());
    if (cl != 0) {  // zero blocks: out is pre-zeroed
      // Decode the intersection of this block with [begin, end).
      const size_t block_begin = b * L;
      const size_t from = std::max(block_begin, begin);
      const size_t to =
          std::min<size_t>({block_begin + L, h.num_elements, end});
      read_block_payload(stream.subspan(off, cl), lb, L, h.bit_shuffle(),
                         scratch);
      reconstruct_block(scratch, h, from - block_begin,
                        std::span(out).subspan(from - begin, to - from));
    }
    off += cl;
  }
  return out;
}

size_t range_payload_bytes(std::span<const byte_t> stream, size_t begin,
                           size_t end) {
  return plan_range(stream, begin, end).payload_bytes;
}

}  // namespace szp::core
