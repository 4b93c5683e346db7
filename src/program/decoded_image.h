// The shared decode front end: every halfword of an image's code regions
// (MainCode/SpmCode) decoded exactly once into flat per-span instruction
// tables. Both consumers of decoded code build on this one table instead of
// maintaining their own decoder loops:
//   * sim::BlockTable compiles the spans into superblocks, and its span
//     bounds are the simulator's self-modifying-store test (after such a
//     store the simulator decodes the new bytes from memory);
//   * the WCET analyzer's CFG reconstruction reads function instruction
//     streams through instr_at() instead of isa::decode(img.read16(...)).
//
// Span extraction mirrors the memory system's merge rule: adjacent
// same-class code regions separated by small gaps (literal pools, alignment
// padding) collapse into one span; gap halfwords are marked invalid so both
// consumers treat them exactly like the undecoded image (pool reads, traps).
#pragma once

#include <cstdint>
#include <vector>

#include "isa/instruction.h"
#include "isa/timing.h"
#include "link/image.h"

namespace spmwcet::program {

class DecodedImage {
public:
  /// Decodes all code halfwords of `img`. The image is only read during
  /// construction; the table owns every decoded value.
  explicit DecodedImage(const link::Image& img);

  struct Span {
    uint32_t lo = 0;  ///< halfword-aligned span base
    uint32_t len = 0; ///< bytes covered; ops has (len+1)/2 entries
    isa::MemClass cls = isa::MemClass::MainMemory;
    std::vector<isa::Instr> ops;
    /// valid[i] != 0 iff ops[i] lies inside a code region (not a merged
    /// gap such as a literal pool or alignment padding).
    std::vector<uint8_t> valid;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Decoded instruction at a halfword-aligned code address, or nullptr
  /// for misaligned addresses, gaps, and anything outside the spans.
  const isa::Instr* find(uint32_t addr) const {
    for (const Span& s : spans_) {
      const uint32_t off = addr - s.lo; // wraps for addr < lo
      if (off < s.len) {
        if ((addr & 1u) != 0 || !s.valid[off >> 1]) return nullptr;
        return &s.ops[off >> 1];
      }
    }
    return nullptr;
  }

  /// Decoded instruction at `addr`; throws ProgramError when the address
  /// is not a decodable code halfword (the analyzer's contract: function
  /// extents always lie inside code regions).
  const isa::Instr& instr_at(uint32_t addr) const;

private:
  std::vector<Span> spans_;
};

} // namespace spmwcet::program
