// LUT4 network: the post-technology-mapping representation.
//
// A LutNetwork is an ordered list of logical *slots*.  Each slot holds one
// 4-input LUT (16-bit truth table), an optional D flip-flop that latches the
// LUT output at the end of every cycle, and an optional output-bus binding.
// Slot inputs reference primary input bits, other slots' combinational
// outputs, other slots' registered (Q) outputs, or constants.
//
// Slot order is the *logical placement order*: the bitstream generator packs
// slots 4-per-CLB and `clb_rows`-CLBs-per-frame in exactly this order, which
// is what makes function bitstreams relocatable to any set of free frames
// (contiguous or not) — references are slot-relative, never physical.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "common/error.h"

namespace aad::netlist {

enum class NetKind : std::uint8_t {
  kUnused = 0,  ///< pin not connected (reads as 0)
  kConst0 = 1,
  kConst1 = 2,
  kPrimary = 3,  ///< index = bit of the function input bus
  kLutComb = 4,  ///< index = earlier slot, combinational output
  kLutReg = 5,   ///< index = any slot with a flip-flop, registered Q output
};

struct NetRef {
  NetKind kind = NetKind::kUnused;
  std::uint32_t index = 0;

  bool operator==(const NetRef&) const = default;
};

/// One logical slot: LUT4 + optional FF + optional output binding.
struct LutSlot {
  std::uint16_t truth = 0;   ///< truth[idx], idx = pin3..pin0 as bits 3..0
  NetRef pins[4];
  bool has_ff = false;       ///< FF latches post-settle value of pin 0 path
  bool is_output = false;
  std::uint16_t output_bit = 0;  ///< position on the function output bus

  bool operator==(const LutSlot&) const = default;
};

/// Executable LUT4 network with a defined cycle semantics:
///   step(): settle combinational slots in slot order, sample outputs
///   (registered outputs read the *current* state, i.e. pre-latch), then
///   latch all FFs.  Sequential kernels therefore expose a `valid` enable
///   and the host samples results on the cycle after the last data beat.
class LutNetwork {
 public:
  LutNetwork() = default;
  LutNetwork(std::string name, std::size_t input_width,
             std::size_t output_width, std::vector<LutSlot> slots = {})
      : name_(std::move(name)),
        input_width_(input_width),
        output_width_(output_width),
        slots_(std::move(slots)) {}

  const std::string& name() const noexcept { return name_; }
  std::size_t input_width() const noexcept { return input_width_; }
  std::size_t output_width() const noexcept { return output_width_; }

  std::uint32_t add_slot(const LutSlot& slot);
  const std::vector<LutSlot>& slots() const noexcept { return slots_; }
  LutSlot& slot(std::uint32_t index);

  std::size_t lut_count() const noexcept { return slots_.size(); }
  std::size_t ff_count() const noexcept;

  /// Structural validation: pin references in range, combinational
  /// references strictly backward (except on FF D-paths, which latch after
  /// settle and may legally read forward), every output bit driven exactly
  /// once.  Throws on violation.
  void validate() const;

  bool operator==(const LutNetwork&) const = default;

 private:
  std::string name_;
  std::size_t input_width_ = 0;
  std::size_t output_width_ = 0;
  std::vector<LutSlot> slots_;
};

/// Cycle-accurate executor for a LutNetwork.
class LutExecutor {
 public:
  explicit LutExecutor(const LutNetwork& network);

  /// One clock cycle; returns the output bus.
  std::vector<bool> step(const std::vector<bool>& inputs);
  void reset();

  std::size_t cycle_count() const noexcept { return cycles_; }

 private:
  bool resolve(const NetRef& ref, const std::vector<bool>& inputs) const;

  const LutNetwork& network_;
  std::vector<bool> comb_;  // per-slot settled LUT output
  std::vector<bool> regs_;  // per-slot FF state (unused when !has_ff)
  std::size_t cycles_ = 0;
};

/// Evaluate a 16-bit truth table at the given pin values.
constexpr bool eval_truth(std::uint16_t truth, bool p0, bool p1, bool p2,
                          bool p3) noexcept {
  const unsigned idx = (p0 ? 1u : 0u) | (p1 ? 2u : 0u) | (p2 ? 4u : 0u) |
                       (p3 ? 8u : 0u);
  return (truth >> idx) & 1u;
}

}  // namespace aad::netlist
