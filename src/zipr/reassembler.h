// The reassembly phase (paper Sec. II-C): convert the transformed IR back
// into machine code WITHOUT keeping a copy of the original program.
//
// Stages, mirroring the paper:
//   1. Initial reference placement -- the output text space starts empty
//      (verbatim Case-2/3 ranges excepted); a constrained unresolved
//      reference is reserved at every pinned address.
//   2. Dense references -- pins too close for even a 2-byte jump are
//      covered by SLEDS: overlapping 0x68 (push imm32) bytes terminated by
//      four 0x90s, so every landing offset pushes a distinct imm32; a
//      generated dispatch routine compares the pushed value and routes to
//      the right target (Sec. II-C2).
//   3. Expansion and chaining -- references widen to 5-byte jumps where
//      room allows; pins that must stay 2-byte chain through trampolines
//      placed within rel8 reach (Sec. II-C3).
//   4. Resolution and placement -- the uDR/D/M loop: unresolved references
//      drive on-demand dollop construction, placement (via the pluggable
//      strategy), splitting to fit free fragments, and patching
//      (Sec. II-C4). Unreferenced code is never placed (dead code drops
//      out naturally).
//
// Layout and byte emission are decoupled: the resolution loop decides every
// address and instruction width but only appends to an emission log; a
// final apply phase encodes the log into the output buffers. Because the
// logged writes are mutually disjoint (placeholder displacements excepted,
// which the later patch pass overwrites), the apply phase parallelizes
// across a worker pool with byte-identical output for any job count.
#pragma once

#include <span>
#include <vector>

#include "analysis/ir_builder.h"
#include "support/arena.h"
#include "zipr/dollop.h"
#include "zipr/memory_space.h"
#include "zipr/placement.h"

namespace zipr::rewriter {

struct ReassemblyOptions {
  PlacementKind placement = PlacementKind::kNearfit;
  std::uint64_t seed = 1;
  /// Emit 2-byte jump forms when the target is already placed within rel8
  /// reach (Sec. III relaxation). When false every reference is emitted
  /// unconstrained (rel32), the paper's diversity-friendly default.
  bool prefer_short_refs = true;
  /// Fallthrough coalescing (paper Sec. III): when a dollop's continuation
  /// is unplaced and the bytes past the emission cursor are free, keep
  /// emitting the successor in place and elide the trailing jump. Off for
  /// the diversity strategy by default (it would correlate successor
  /// layout with predecessor layout, weakening randomization).
  bool coalesce = true;
  /// Intra-rewrite parallelism for the emission phase (encode + patch
  /// apply). Never affects output bytes; <= 1 runs inline.
  int jobs = 1;
  /// Cap on how many successor dollops one emission region may absorb;
  /// bounds the main-span space a single placement decision can claim.
  std::size_t max_coalesce_run = 64;
  /// External rewrite arena (a RewriteWorkspace's, recycled across
  /// requests). Rewound before use; never affects output bytes. Null gives
  /// the Reassembler an arena of its own that dies with it.
  MonotonicArena* arena = nullptr;
};

struct RewriteStats {
  std::size_t pins = 0;
  std::size_t pin_refs_short = 0;   ///< pins satisfied with 2-byte jumps
  std::size_t pin_refs_long = 0;    ///< pins widened to 5-byte jumps
  std::size_t pins_in_place = 0;    ///< 1-byte pinned insns emitted in place
  std::size_t sleds = 0;
  std::size_t sled_entries = 0;
  std::size_t chains = 0;           ///< pins resolved through trampolines
  std::size_t chain_hops = 0;       ///< total intermediate hops
  std::size_t dollops_placed = 0;
  std::size_t dollop_splits = 0;
  std::size_t insns_placed = 0;
  std::size_t refs_resolved = 0;
  std::size_t dollops_coalesced = 0;  ///< dollops emitted in place after a predecessor
  std::size_t jumps_elided = 0;       ///< trailing jumps removed by coalescing
  std::size_t cont_jumps = 0;         ///< trailing jumps actually emitted
  std::uint64_t trailing_jump_bytes = 0;  ///< bytes spent on emitted trailing jumps
  std::uint64_t bytes_saved = 0;      ///< bytes elision kept out of the output
  std::uint64_t overflow_bytes = 0;   ///< file-size overhead in text bytes
  std::uint64_t free_bytes_left = 0;  ///< unused main-span space
  std::uint64_t output_text_bytes = 0;

  /// Fraction of truncated-dollop continuations whose trailing jump was
  /// elided; 0 when no dollop needed one.
  double elision_rate() const {
    std::size_t total = jumps_elided + cont_jumps;
    return total == 0 ? 0.0 : static_cast<double>(jumps_elided) / static_cast<double>(total);
  }
};

class Reassembler {
 public:
  /// `prog` is consumed: dispatch code for sleds is added to its database.
  Reassembler(analysis::IrProgram& prog, const ReassemblyOptions& opts);

  /// Produce the rewritten image.
  Result<zelf::Image> run();

  const RewriteStats& stats() const { return stats_; }

  /// Final address of an instruction row in the output (tests/debugging);
  /// nullopt if the row was never placed.
  std::optional<std::uint64_t> placed_at(irdb::InsnId id) const;

 private:
  friend class ReassemblerTestPeer;  // regression tests for checked invariants

  static constexpr std::uint64_t kUnplaced = ~std::uint64_t{0};

  struct PinSite {
    std::uint64_t addr = 0;
    std::uint8_t reserved = 0;  ///< 2..5 bytes held for this reference
    irdb::InsnId target = irdb::kNullInsn;
    /// For constrained (reserved < 5) pins: a 5-byte trampoline slot
    /// reserved within rel8 reach BEFORE dollop placement consumes space
    /// (the paper runs expansion/chaining ahead of placement). Released if
    /// the target ends up directly reachable.
    std::optional<std::uint64_t> trampoline;
    bool trampoline_in_overflow = false;
  };

  /// An emitted 5-byte jump whose rel32 displacement awaits its target.
  struct PendingRef {
    std::uint64_t site = 0;  ///< address of the jump opcode byte
    irdb::InsnId target = irdb::kNullInsn;
    std::optional<std::uint64_t> preferred;  ///< placement hint
  };

  /// One deferred instruction emission: layout fixed the address and
  /// encoding width; the apply phase produces the bytes.
  struct EmitRec {
    isa::Insn in;
    std::uint64_t addr = 0;
    std::uint8_t len = 0;  ///< encoded length layout budgeted for
  };

  /// One rel32 displacement patch into a previously logged placeholder
  /// jump; applied strictly after every EmitRec (it overwrites the
  /// placeholder's displacement bytes).
  struct PatchRec {
    std::uint64_t site = 0;    ///< address of the jump opcode byte
    std::uint64_t target = 0;  ///< resolved target address
  };

  // -- stage drivers --
  Status place_verbatim_ranges();
  Status build_sleds();
  Status reserve_pin_sites();
  Status resolve_all();
  /// Encode the emission log into the output buffers (parallel across
  /// opts_.jobs workers), then apply the rel32 patches.
  Status apply_log();

  // -- helpers --
  Status resolve_pin(const PinSite& pin);
  Status resolve_ref(const PendingRef& ref);
  Status chain_pin(const PinSite& pin);
  Result<std::uint64_t> ensure_placed(irdb::InsnId insn, std::optional<std::uint64_t> preferred);
  Status place_dollop(Dollop* d, std::optional<std::uint64_t> preferred);
  Status emit_dollop_at(Dollop* d, std::uint64_t base, std::uint64_t budget, bool in_overflow);
  /// Log one IR row for emission at `addr`; returns its encoded length.
  Result<std::size_t> emit_row_at(irdb::ConstRowRef row, std::uint64_t addr);
  /// Log `in` for emission at `addr`; returns its encoded length.
  Result<std::size_t> emit_insn_at(const isa::Insn& in, std::uint64_t addr);
  /// Log a rel32 displacement patch for the placeholder jump at `site`.
  Status patch_rel32(std::uint64_t site, std::uint64_t target_addr);

  // -- placement map M, flattened --
  bool is_placed(irdb::InsnId id) const {
    return id != irdb::kNullInsn && id <= placed_cap_ && placed_[id - 1] != kUnplaced;
  }
  /// Precondition: is_placed(id).
  std::uint64_t placed_addr(irdb::InsnId id) const { return placed_[id - 1]; }
  void mark_placed(irdb::InsnId id, std::uint64_t addr);

  /// The one width decision shared by pins, continuation jumps and
  /// emit_row_at, so the three sites cannot drift. `can_short`: the op has
  /// a rel8 form at all (call does not). `glue`: the jump is rewriter glue
  /// rather than an original program reference -- glue takes the short
  /// form whenever it reaches regardless of prefer_short_refs (a squeezed
  /// pin has no room for rel32; a shorter continuation jump is pure
  /// savings and carries no diversity weight).
  isa::BranchWidth ref_width(std::uint64_t site, std::uint64_t target, bool can_short,
                             bool glue) const;

  /// Writable view of the output at [addr, addr+want), clamped to the main
  /// buffer's end when `addr` is in the main span (emission never straddles
  /// the main/overflow boundary; allocations come from exactly one side).
  std::span<Byte> out_span(std::uint64_t addr, std::size_t want);

  // Sled construction (Sec. II-C2).
  Result<irdb::InsnId> build_sled_dispatch(const std::vector<std::pair<std::uint64_t, std::uint32_t>>& entries,
                                           irdb::InsnId nop_region_target);

  // -- output buffer over [main.begin, +inf) --
  // Rejects addresses below the main span (checked even under NDEBUG: the
  // offset arithmetic would otherwise underflow into a wild OOB write).
  Status write_bytes(std::uint64_t addr, ByteView bytes);

  /// `opts.arena` (rewound) when set, else this rewrite's own arena.
  MonotonicArena* select_arena(MonotonicArena* external);

  analysis::IrProgram& prog_;
  ReassemblyOptions opts_;
  MemorySpace space_;
  std::unique_ptr<PlacementStrategy> strategy_;
  MonotonicArena own_arena_;  ///< used when opts.arena is null; dies with the rewrite
  MonotonicArena* arena_;     ///< owns dollops, M, and the logs
  DollopManager dollops_;

  Bytes main_buf_;      ///< [main.begin, main.end)
  Bytes overflow_buf_;  ///< [main.end, ...)

  /// The map M as a dense array: output address per row id (id-1 indexed),
  /// kUnplaced sentinel. Arena-backed; grows when sled dispatch rows extend
  /// the id space mid-rewrite.
  std::uint64_t* placed_ = nullptr;
  std::size_t placed_cap_ = 0;

  std::vector<PendingRef> pending_;  ///< the list uDR
  std::vector<PinSite> pin_sites_;
  std::vector<std::uint64_t> sled_handled_;  ///< sorted; pins satisfied by a sled

  ArenaVector<EmitRec> emit_log_;
  ArenaVector<PatchRec> patch_log_;
  RewriteStats stats_;
};

}  // namespace zipr::rewriter
