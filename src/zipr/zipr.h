// Zipr: the public entry point of the static binary rewriter.
//
// One call drives the paper's full pipeline (Fig. 1):
//
//   IR Construction  ->  Transformation  ->  Reassembly
//   (analysis/)          (transform/)        (zipr/)
//
//   zelf::Image in = ...;
//   zipr::RewriteOptions opts;
//   opts.transforms = {"cfi"};                 // or {}, {"stackpad"}, ...
//   auto result = zipr::rewrite(in, opts);
//   // result->image runs in the VM / serializes with zelf::write_image.
//
// The rewriter consumes only segment bytes and the entry point -- never
// symbols, debug info or source -- and the output binary contains NO copy
// of the original code: original text space is reclaimed for references
// and relocated dollops, with spill appended as overflow.
#pragma once

#include "analysis/ir_builder.h"
#include "transform/api.h"
#include "zipr/reassembler.h"

namespace zipr {

struct RewriteOptions {
  analysis::AnalysisOptions analysis;

  /// Dollop placement strategy (paper Sec. III). kNearfit favors memory
  /// overhead (the CGC configuration); kDiversity favors layout
  /// randomization; kPinPage aggressively fills pinned pages.
  rewriter::PlacementKind placement = rewriter::PlacementKind::kNearfit;

  /// Seed for all randomized decisions (diversity layout, transform
  /// randomness). Same seed + same input => identical output.
  std::uint64_t seed = 1;

  /// Override the short-reference relaxation choice; by default it tracks
  /// the strategy (nearfit/pinpage relax lazily, diversity unconstrains
  /// everything as the paper's default does).
  std::optional<bool> prefer_short_refs;

  /// Override fallthrough dollop coalescing (elide the trailing jump by
  /// emitting an unplaced successor directly past the cursor). Defaults to
  /// the strategy's preference: on for nearfit/pinpage, off for diversity
  /// (coalescing correlates successor layout with predecessor layout,
  /// which would weaken the randomization diversity exists to provide).
  std::optional<bool> coalesce;

  /// Registered transform names, applied in order (Sec. II-B2). An empty
  /// list equals {"null"}.
  std::vector<std::string> transforms;

  /// CFG-aware selective coverage instrumentation (dominator pruning,
  /// liveness-elided stubs). Off falls back to the conservative
  /// every-block instrumentation.
  bool cov_prune = true;
};

/// Wall-clock time spent in each pipeline phase of one rewrite() call.
struct StageTimes {
  double ir_ms = 0;          ///< Phase 1: IR construction
  double transform_ms = 0;   ///< Phase 2: mandatory checks + transforms
  double reassembly_ms = 0;  ///< Phase 3: reassembly
  double total_ms() const { return ir_ms + transform_ms + reassembly_ms; }
};

struct RewriteResult {
  zelf::Image image;
  analysis::AnalysisStats analysis;
  rewriter::RewriteStats reassembly;
  transform::InstrumentationStats instrumentation;  ///< summed over transforms
  StageTimes timing;
};

/// Execution policy for one rewrite() call: knobs that control HOW the
/// pipeline runs, never WHAT it produces. Deliberately separate from
/// RewriteOptions -- options are the semantic cache/serialization key
/// (serve layer), and the output is byte-identical for any jobs value,
/// so keying on jobs would only split the artifact cache.
class RewriteWorkspace;  // workspace.h: recycled per-worker scratch state

struct ExecPolicy {
  /// Intra-rewrite parallelism: worker count for the parallel phases
  /// (chunked linear-sweep disassembly, dollop encode + patch apply).
  /// <= 1 runs every phase inline on the calling thread; 0 or negative
  /// means "use the hardware". Output bytes are identical for all values.
  int jobs = 1;

  /// Recycled scratch state (see workspace.h): the pipeline's large
  /// transient tables and the reassembly arena borrow this workspace's
  /// capacity instead of allocating fresh. Null allocates per call: the
  /// tables and the reassembly arena die with the rewrite. Every
  /// borrowed buffer is re-initialized per rewrite -- output bytes are
  /// identical with or without a workspace, so like `jobs` this stays an
  /// execution knob, never part of the cache key.
  RewriteWorkspace* workspace = nullptr;
};

/// Rewrite `input`, applying the configured transforms.
///
/// REENTRANT: all pipeline state is per-call; concurrent rewrites from
/// multiple threads are safe (see the batch engine, src/batch). The only
/// shared state touched is the mutex-guarded transform registry and the
/// thread-safe logger.
Result<RewriteResult> rewrite(const zelf::Image& input, const RewriteOptions& options = {},
                              const ExecPolicy& exec = {});

}  // namespace zipr
