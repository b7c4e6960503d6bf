// Disassembly engines and their conservative aggregation (paper Sec. II-A1).
//
// The paper aggregates the output of multiple disassemblers (objdump + IDA
// Pro) so each tool's strengths compensate for the others' weaknesses. We
// reproduce that architecture with two engines with different failure
// modes:
//
//   * linear_sweep()        -- objdump-like: decodes the text segment
//     front-to-back. Strength: sees every byte. Weakness: embedded data
//     desynchronizes it and data bytes often decode as plausible code.
//
//   * recursive_traversal() -- IDA-like: follows control flow from the
//     entry point, discovering call targets, jump tables, and code
//     addresses materialized as immediates. Strength: everything it claims
//     is reachable, hence conclusively code. Weakness: misses code only
//     reachable through pointers it cannot model.
//
// aggregate() combines them into the paper's four-outcome scheme:
//   Case 1  both engines agree a range is code (recursive reached it)  ->
//           definite code, free to relocate;
//   Case 2  conclusively data (recursive never reached it; linear sweep
//           cannot decode it cleanly)                                   ->
//           kept verbatim at its original address AND decoded as code
//           for CFG/pinning purposes;
//   Case 3  ambiguous (engines disagree: linear sweep decodes it but
//           nothing conclusive reaches it)                              ->
//           treated exactly like Case 2 (both code and data);
//   Case 4  (mislabeling data as conclusive code) is avoided by only
//           letting *validated* traversal claim bytes; tentative seeds
//           whose decode runs fail validation stay in Case 3.
#pragma once

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>
#include <vector>

#include "isa/insn.h"
#include "support/interval.h"
#include "support/status.h"
#include "zelf/image.h"

namespace zipr::analysis {

/// Sorted flat (address -> decoded instruction) table. Exposes the subset
/// of the std::map interface the pipeline uses -- count/find/lower_bound/
/// ranged iteration over pairs -- but stores one contiguous vector, so
/// building a 20k-instruction table is a handful of allocations instead
/// of 20k node allocations, and iteration streams linearly.
class AddrInsnMap {
 public:
  using value_type = std::pair<std::uint64_t, isa::Insn>;
  using const_iterator = std::vector<value_type>::const_iterator;

  /// Append an entry with an address greater than every existing one
  /// (engines discover code in ascending order or sort before adoption).
  void append(std::uint64_t addr, const isa::Insn& insn) {
    v_.emplace_back(addr, insn);
  }

  /// Take ownership of claims already in ascending address order (the
  /// linear sweep discovers them that way); skips the sort AND the
  /// element-wise copy a rebuild through append() would cost.
  void adopt_sorted(std::vector<value_type> v) {
    assert(std::is_sorted(v.begin(), v.end(),
                          [](const value_type& a, const value_type& b) { return a.first < b.first; }));
    v_ = std::move(v);
  }

  std::size_t count(std::uint64_t addr) const { return find(addr) ? 1 : 0; }
  const isa::Insn* find(std::uint64_t addr) const {
    auto it = lower_bound(addr);
    return (it != v_.end() && it->first == addr) ? &it->second : nullptr;
  }
  const_iterator lower_bound(std::uint64_t addr) const {
    return std::lower_bound(
        v_.begin(), v_.end(), addr,
        [](const value_type& p, std::uint64_t a) { return p.first < a; });
  }

  const_iterator begin() const { return v_.begin(); }
  const_iterator end() const { return v_.end(); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  /// Steal the backing vector (the map becomes empty). Lets a recycling
  /// caller reclaim the table's capacity once it is done with the entries.
  std::vector<value_type> release() { return std::move(v_); }

 private:
  std::vector<value_type> v_;
};

/// Output of one disassembly engine.
struct DisasmResult {
  /// Decoded instruction at each address the engine claims is code.
  AddrInsnMap insns;
  /// Byte ranges covered by claimed instructions.
  IntervalSet code;
};

/// A discovered jump table: `slots[i]` is the code address stored at
/// table_addr + 8*i in the original image.
struct JumpTable {
  std::uint64_t jmpt_addr = 0;   ///< address of the jmpt instruction
  std::uint64_t table_addr = 0;  ///< address of the first slot
  std::vector<std::uint64_t> slots;
};

struct AnalysisScratch;  // scratch.h; buffers recycled across rewrites

/// objdump-like engine. Decodes `text` sequentially; after an undecodable
/// byte it advances one byte and resynchronizes. `jobs` > 1 decodes fixed
/// chunks in parallel and stitches boundaries sequentially; because a
/// decode at a given address is independent of how the sweep arrived
/// there, the stitched result is EXACTLY the serial sweep's output.
///
/// `claims_scratch`, if given, donates its capacity to the decode stream
/// (the vector is moved out and left empty); reclaim it afterwards via
/// `result.insns.release()`. Never changes the result.
DisasmResult linear_sweep(const zelf::Segment& text, int jobs = 1,
                          std::vector<AddrInsnMap::value_type>* claims_scratch = nullptr);

struct TraversalResult {
  DisasmResult dis;
  std::set<std::uint64_t> function_entries;  ///< entry + call targets + fptrs
  std::vector<JumpTable> jump_tables;
  /// Code addresses discovered as immediates/table slots (indirect branch
  /// targets the rewriter must pin).
  std::set<std::uint64_t> indirect_targets;
  /// Tentative seeds that failed validation (left ambiguous).
  std::set<std::uint64_t> rejected_seeds;
};

struct TraversalOptions {
  std::size_t max_jump_table_slots = 4096;
  /// Scan rodata/data for 8-byte words that look like text addresses and
  /// treat them as tentative code seeds (validated before acceptance).
  bool scan_data_for_pointers = true;
};

/// IDA-like engine: follow control flow from the entry point to a fixpoint,
/// including jump-table and address-constant discovery.
///
/// `scratch`, if given, backs the walk's `byte_state` and `traversal_work`
/// in place and donates `code_claims` (escapes into `result.dis.insns`;
/// reclaim via release() once the table is dead); if null, a local scratch
/// does. Never changes the result.
TraversalResult recursive_traversal(const zelf::Image& image, const TraversalOptions& opts = {},
                                    AnalysisScratch* scratch = nullptr);

/// Aggregated classification of the text segment.
struct Aggregate {
  /// Authoritative decodes for relocatable (Case 1) code.
  AddrInsnMap code_insns;
  IntervalSet definite_code;
  /// Case 2/3 byte ranges: kept verbatim, also decoded for CFG purposes.
  IntervalSet ambiguous;
  /// Traversal claims a verbatim instruction straddles (its operand bytes):
  /// they stay verbatim and execute in place, so pinning treats their exits
  /// like those of the verbatim decode stream.
  AddrInsnMap demoted;
  /// Count of Case 3 decisions where the engines actively disagreed
  /// (linear sweep decoded bytes that nothing conclusive reaches).
  std::size_t disagreements = 0;
};

Aggregate aggregate(const zelf::Segment& text, const DisasmResult& linear,
                    const TraversalResult& recursive);

/// Move overload for the pipeline hot path: steals `recursive.dis` (a
/// multi-MB table on big binaries) instead of copying it. The traversal's
/// metadata fields -- function_entries, jump_tables, indirect_targets,
/// rejected_seeds -- are NOT consumed and stay valid for compute_pins and
/// function grouping.
Aggregate aggregate(const zelf::Segment& text, const DisasmResult& linear,
                    TraversalResult&& recursive);

}  // namespace zipr::analysis
