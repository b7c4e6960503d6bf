// IR Construction (paper Sec. II-A): disassemble, aggregate, pin, and
// populate the IRDB with logically-linked instructions.
//
// The "mandatory transformations" of Sec. II-B1 -- converting PC-relative
// relationships into layout-independent logical links -- are performed
// here while original addresses are still known:
//   * branch targets become row ids (or absolute original addresses when
//     the target stays fixed in a verbatim range);
//   * fallthroughs become row ids, with synthetic jumps materialized where
//     execution would flow into bytes that remain at original addresses;
//   * PC-relative data references (lea/loadpc) become absolute `data_ref`
//     links (data keeps its original addresses after rewriting).
// transform::verify_mandatory() checks these invariants hold before
// reassembly.
#pragma once

#include "analysis/disasm.h"
#include "analysis/pinning.h"
#include "irdb/ir.h"

namespace zipr::analysis {

struct AnalysisOptions {
  TraversalOptions traversal;
  PinningOptions pinning;
};

struct AnalysisStats {
  std::size_t code_insns = 0;       ///< relocatable instructions lifted
  std::size_t synthetic_jumps = 0;  ///< jumps added for fallthrough-to-fixed
  std::size_t verbatim_ranges = 0;
  std::size_t verbatim_bytes = 0;
  std::size_t pins = 0;             ///< pins requiring references
  std::size_t pins_covered = 0;     ///< pins satisfied by verbatim bytes
  std::size_t pins_dropped = 0;
  std::size_t functions = 0;
  std::size_t jump_tables = 0;
  std::size_t disagreements = 0;    ///< Case-3 engine disagreements
};

/// The rewriter's working representation of one program.
struct IrProgram {
  irdb::Database db;
  zelf::Image original;

  /// Verbatim (Case 2/3) byte ranges and the row holding each one's bytes.
  std::vector<std::pair<Interval, irdb::InsnId>> verbatim;

  std::map<std::uint64_t, std::uint32_t> pin_reasons;  ///< addr -> PinReason mask

  /// Indirect-branch-target candidates satisfied implicitly because they
  /// lie inside verbatim ranges (consumed by CFI's valid-target set).
  std::set<std::uint64_t> verbatim_ibts;

  std::vector<JumpTable> jump_tables;
  AnalysisStats stats;
};

/// Run the full IR Construction phase on a binary image. `jobs` bounds
/// intra-phase parallelism (the linear-sweep engine); it NEVER affects the
/// resulting IR, so it is an execution knob, not an analysis option.
/// `scratch` likewise: if given, the phase's large transient tables live in
/// the scratch buffers and keep their capacity for the next call, so a
/// long-lived worker stops re-faulting them every rewrite; if null, they
/// live in a local scratch that dies with the call. Each buffer is fully
/// re-initialized here -- scratch NEVER affects the resulting IR.
Result<IrProgram> build_ir(const zelf::Image& image, const AnalysisOptions& opts = {},
                           int jobs = 1, AnalysisScratch* scratch = nullptr);

}  // namespace zipr::analysis
