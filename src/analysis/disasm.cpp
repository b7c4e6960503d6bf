#include "analysis/disasm.h"

#include "analysis/scratch.h"
#include "batch/worker_pool.h"
#include "support/log.h"

namespace zipr::analysis {

namespace {

/// Decode the instruction at `addr` out of the text segment into `out`.
/// False past the FILE-backed bytes (a text segment's memsize may exceed
/// its file size; the zero-filled tail holds no decodable content) or on
/// an invalid encoding. Allocation-free: both sweeps probe every data
/// byte embedded in text, so a failed decode must not compose an error
/// message.
bool decode_at(const zelf::Segment& text, std::uint64_t addr, isa::Insn& out) {
  if (addr < text.vaddr) return false;
  std::uint64_t off = addr - text.vaddr;
  if (off >= text.bytes.size()) return false;
  std::size_t avail = text.bytes.size() - static_cast<std::size_t>(off);
  std::size_t want = std::min<std::size_t>(isa::kMaxInsnLen, avail);
  return isa::decode_at(ByteView(text.bytes.data() + off, want), out);
}

/// True if `insn` carries an immediate that plausibly names a code address
/// (a materialized function pointer / label). lea's displacement is
/// PC-relative and is resolved by the caller.
bool immediate_names_code(const isa::Insn& insn, const zelf::Segment& text,
                          std::uint64_t* out_addr) {
  using isa::Op;
  switch (insn.op) {
    case Op::kMovI:
    case Op::kMovI64:
    case Op::kPushI: {
      auto v = static_cast<std::uint64_t>(insn.imm);
      if (v >= text.vaddr && v < text.end()) {
        *out_addr = v;
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

/// Insert the byte coverage of an address-sorted, non-overlapping
/// instruction sequence as maximal contiguous runs: one IntervalSet node
/// per run instead of two transient node allocations per instruction
/// (insert-then-coalesce).
template <typename Range>
void insert_coverage(const Range& insns, IntervalSet* code) {
  std::uint64_t run_lo = 0, run_hi = 0;
  for (const auto& [addr, insn] : insns) {
    if (addr != run_hi) {
      if (run_lo != run_hi) code->insert(run_lo, run_hi);
      run_lo = addr;
    }
    run_hi = addr + insn.length;
  }
  if (run_lo != run_hi) code->insert(run_lo, run_hi);
}

/// One parallel sweep chunk: the decode stream started at `start`,
/// truncated to entries below the next chunk's start, plus the address the
/// stream exited the chunk at (>= the next chunk's start).
struct SweepChunk {
  std::vector<AddrInsnMap::value_type> insns;
  std::uint64_t exit = 0;
};

/// Decode forward from `addr`, recording entries with address < `limit`;
/// returns the first reached address >= `limit` (the stream's exit point).
std::uint64_t sweep_run(const zelf::Segment& text, std::uint64_t addr, std::uint64_t limit,
                        std::vector<AddrInsnMap::value_type>* out) {
  isa::Insn insn;
  while (addr < limit) {
    if (!decode_at(text, addr, insn)) {
      // Resynchronize one byte later, like objdump's ".byte" fallback.
      ++addr;
      continue;
    }
    out->emplace_back(addr, insn);
    addr += insn.length;
  }
  return addr;
}

}  // namespace

DisasmResult linear_sweep(const zelf::Segment& text, int jobs,
                          std::vector<AddrInsnMap::value_type>* claims_scratch) {
  const std::uint64_t begin = text.vaddr;
  const std::uint64_t end = text.vaddr + text.bytes.size();
  DisasmResult out;
  // Chunks below ~16 KB are not worth a dispatch; this also keeps tiny
  // binaries in one chunk, decoded inline, regardless of the requested job
  // count.
  std::size_t workers = batch::effective_jobs(jobs, text.bytes.size() / (16 * 1024));

  // Fixed chunks decode independently, then a sequential stitch repairs
  // each boundary. Decoding at an address is memoryless -- it depends only
  // on the bytes there, not on how the sweep arrived -- so once the true
  // stream reaches ANY address a chunk's local stream also decoded, the two
  // streams coincide from that point on. The stitch re-decodes from the
  // previous chunk's exit address until it hits such an address (usually
  // within a few instructions) and splices the rest.
  const std::uint64_t chunk = (end - begin + workers - 1) / workers;
  std::vector<SweepChunk> chunks(workers);
  // Chunk 0's stream seeds the merged vector below, so donated capacity
  // ends up backing the full stitched table.
  std::vector<AddrInsnMap::value_type> own_claims;
  chunks[0].insns = std::move(claims_scratch ? *claims_scratch : own_claims);
  chunks[0].insns.clear();
  batch::parallel_for(static_cast<int>(workers), workers, [&](std::size_t i) {
    std::uint64_t lo = begin + chunk * i;
    std::uint64_t hi = std::min<std::uint64_t>(end, lo + chunk);
    if (lo >= hi) {
      chunks[i].exit = lo;
      return;
    }
    chunks[i].insns.reserve(static_cast<std::size_t>(hi - lo) / 4);
    chunks[i].exit = sweep_run(text, lo, hi, &chunks[i].insns);
  });

  // Chunk 0's local stream IS the true stream over its range.
  std::vector<AddrInsnMap::value_type> merged = std::move(chunks[0].insns);
  std::uint64_t stream_pos = chunks[0].exit;  // true stream's next address
  for (std::size_t i = 1; i < workers; ++i) {
    const std::uint64_t lo = begin + chunk * i;
    const std::uint64_t hi = std::min<std::uint64_t>(end, lo + chunk);
    if (lo >= hi) continue;
    const auto& local = chunks[i].insns;
    // Walk the true stream until it lands on a locally-decoded start (or
    // leaves the chunk). Locally decoded starts form one monotone chain,
    // so membership is a binary search.
    std::size_t sync = 0;
    while (stream_pos < hi) {
      auto it = std::lower_bound(
          local.begin(), local.end(), stream_pos,
          [](const AddrInsnMap::value_type& p, std::uint64_t a) { return p.first < a; });
      if (it != local.end() && it->first == stream_pos) {
        sync = static_cast<std::size_t>(it - local.begin());
        break;
      }
      isa::Insn insn;
      if (!decode_at(text, stream_pos, insn)) {
        ++stream_pos;
        continue;
      }
      merged.emplace_back(stream_pos, insn);
      stream_pos += insn.length;
    }
    if (stream_pos >= hi) continue;  // never synchronized; chunk fully re-decoded
    merged.insert(merged.end(), local.begin() + static_cast<std::ptrdiff_t>(sync),
                  local.end());
    stream_pos = chunks[i].exit;
  }

  insert_coverage(merged, &out.code);
  out.insns.adopt_sorted(std::move(merged));
  return out;
}

namespace {

/// Shared traversal state. Claim-tracking lives in a per-byte state array
/// over the text segment (bit 0: an instruction STARTS here; bit 1: the
/// byte is covered by some claimed instruction) -- O(1) queries with no
/// per-claim allocation; the sorted claim table is built once at the end.
struct Traverser {
  static constexpr std::uint8_t kStart = 1;
  static constexpr std::uint8_t kCovered = 2;

  const zelf::Image& image;
  const zelf::Segment& text;
  const TraversalOptions& opts;
  AnalysisScratch& scratch;  ///< recycled buffers backing the tables below
  TraversalResult result;
  /// FIFO via head index: identical visit order to a deque, but one flat
  /// recyclable buffer instead of per-chunk node churn (a deque allocates
  /// and frees a block every 64 pops on this push/pop-heavy walk).
  std::vector<std::uint64_t>& worklist;
  std::size_t work_head = 0;
  std::vector<std::uint8_t>& state;  ///< per text byte
  std::size_t claim_count = 0;

  Traverser(const zelf::Image& img, const TraversalOptions& o, AnalysisScratch& s)
      : image(img),
        text(img.text()),
        opts(o),
        scratch(s),
        worklist(s.traversal_work),
        state(s.byte_state) {
    worklist.clear();
    state.assign(text.bytes.size(), 0);
  }

  bool in_text(std::uint64_t addr) const {
    return addr >= text.vaddr && addr - text.vaddr < state.size();
  }
  bool claimed_at(std::uint64_t addr) const {
    return in_text(addr) && (state[addr - text.vaddr] & kStart);
  }
  bool covered_at(std::uint64_t addr) const {
    return in_text(addr) && (state[addr - text.vaddr] & kCovered);
  }
  bool covered_any(std::uint64_t lo, std::uint64_t hi) const {
    for (std::uint64_t a = lo; a < hi; ++a)
      if (covered_at(a)) return true;
    return false;
  }
  void claim(std::uint64_t addr, const isa::Insn& insn) {
    ++claim_count;
    std::uint64_t off = addr - text.vaddr;
    state[off] |= kStart;
    for (std::uint8_t b = 0; b < insn.length; ++b) state[off + b] |= kCovered;
  }

  /// Validate a tentative code seed: walk the fallthrough chain from
  /// `seed`; accept only if every byte decodes and the run terminates at a
  /// non-fallthrough instruction or flows into already-claimed code. This
  /// is the Case-4 guard: data that merely looks address-like rarely
  /// decodes into a clean, properly-terminated run.
  bool validate_run(std::uint64_t seed) const {
    std::uint64_t addr = seed;
    isa::Insn insn;
    for (int steps = 0; steps < 100000; ++steps) {
      if (claimed_at(addr)) return true;  // flows into known code
      if (covered_at(addr)) return false;  // mid-insn overlap
      if (!decode_at(text, addr, insn)) return false;
      if (insn.has_static_target()) {
        std::uint64_t t = insn.target(addr);
        if (!text.contains(t)) return false;  // branch out of text
      }
      if (!insn.has_fallthrough()) return true;  // clean terminator
      addr += insn.length;
      if (addr >= text.vaddr + text.bytes.size()) {
        // Ran off the end. A trailing syscall is an idiomatic terminator
        // (terminate never returns); anything else is rejected.
        return insn.op == isa::Op::kSyscall;
      }
    }
    return false;
  }

  /// Claim one instruction; push its control-flow successors.
  void visit(std::uint64_t addr) {
    if (claimed_at(addr)) return;
    if (covered_at(addr)) {
      // Overlaps a previously-claimed instruction at a different offset --
      // conflicting evidence; leave for the aggregator.
      ZIPR_WARN << "traversal: misaligned overlap at " << hex_addr(addr);
      return;
    }
    isa::Insn insn;
    if (!decode_at(text, addr, insn)) {
      ZIPR_DEBUG << "traversal: undecodable at " << hex_addr(addr);
      return;
    }
    if (covered_any(addr, addr + insn.length)) {
      ZIPR_WARN << "traversal: tail overlap at " << hex_addr(addr);
      return;
    }
    claim(addr, insn);

    if (insn.has_fallthrough()) worklist.push_back(addr + insn.length);
    if (insn.has_static_target()) {
      std::uint64_t t = insn.target(addr);
      if (text.contains(t)) {
        worklist.push_back(t);
        if (insn.is_call()) result.function_entries.insert(t);
      }
    }
    if (insn.op == isa::Op::kJmpT) discover_jump_table(addr, insn);

    std::uint64_t const_target = 0;
    if (immediate_names_code(insn, text, &const_target)) {
      accept_indirect_target(const_target);
    }
    if (insn.op == isa::Op::kLea) {
      std::uint64_t ref = insn.pc_ref(addr);
      if (text.contains(ref)) accept_indirect_target(ref);
    }
  }

  /// Record a runtime-computable code address; validated seeds also become
  /// traversal roots (and function entries: address-taken code).
  void accept_indirect_target(std::uint64_t addr) {
    result.indirect_targets.insert(addr);
    if (claimed_at(addr)) {
      result.function_entries.insert(addr);
      return;
    }
    if (validate_run(addr)) {
      result.function_entries.insert(addr);
      worklist.push_back(addr);
    } else {
      result.rejected_seeds.insert(addr);
      ZIPR_WARN << "analysis: address-like constant " << hex_addr(addr)
                << " failed code validation; leaving bytes ambiguous";
    }
  }

  void discover_jump_table(std::uint64_t jmpt_addr, const isa::Insn& insn) {
    JumpTable table;
    table.jmpt_addr = jmpt_addr;
    table.table_addr = static_cast<std::uint64_t>(insn.imm);
    for (std::size_t i = 0; i < opts.max_jump_table_slots; ++i) {
      auto bytes = image.read_bytes(table.table_addr + 8 * i, 8);
      if (!bytes.ok()) break;
      std::uint64_t slot = get_u64(*bytes, 0);
      if (!text.contains(slot)) break;  // table terminator
      if (!claimed_at(slot) && !validate_run(slot)) break;
      table.slots.push_back(slot);
      result.indirect_targets.insert(slot);
      worklist.push_back(slot);
    }
    if (!table.slots.empty()) result.jump_tables.push_back(std::move(table));
  }

  void drain() {
    while (work_head < worklist.size()) visit(worklist[work_head++]);
    worklist.clear();
    work_head = 0;
  }

  void scan_data_segments() {
    for (const auto& seg : image.segments) {
      if (seg.kind == zelf::SegKind::kText || seg.bytes.empty()) continue;
      for (std::size_t off = 0; off + 8 <= seg.bytes.size(); off += 8) {
        std::uint64_t v = get_u64(seg.bytes, off);
        if (v >= text.vaddr && v < text.vaddr + text.bytes.size())
          accept_indirect_target(v);
        // Process discoveries eagerly so later words see updated claims.
        drain();
      }
    }
  }

  /// Build the sorted claim table + coverage set by scanning the state
  /// bitmap in address order and re-decoding each claimed start (decoding
  /// is deterministic in the bytes, so this reproduces exactly what
  /// claim() saw). One sequential pass over text-sized data, instead of
  /// accumulating claims in discovery order and paying an O(n log n) sort
  /// over a multi-MB table -- the only superlinear term in the pipeline.
  void finalize() {
    std::vector<AddrInsnMap::value_type> sorted = std::move(scratch.code_claims);
    sorted.clear();
    sorted.reserve(claim_count);
    isa::Insn insn;
    for (std::size_t off = 0; off < state.size(); ++off) {
      if (!(state[off] & kStart)) continue;
      std::uint64_t addr = text.vaddr + off;
      if (decode_at(text, addr, insn)) sorted.emplace_back(addr, insn);
    }
    insert_coverage(sorted, &result.dis.code);
    result.dis.insns.adopt_sorted(std::move(sorted));
  }
};

}  // namespace

TraversalResult recursive_traversal(const zelf::Image& image, const TraversalOptions& opts,
                                    AnalysisScratch* scratch) {
  AnalysisScratch own_scratch;
  Traverser t(image, opts, scratch ? *scratch : own_scratch);
  if (image.entry != 0) {
    t.worklist.push_back(image.entry);
    t.result.function_entries.insert(image.entry);
  }
  // Exported entry points are conclusive roots: the loader hands them to
  // other images, so they are both code and indirect branch targets.
  for (const auto& exp : image.exports) {
    t.worklist.push_back(exp.addr);
    t.result.function_entries.insert(exp.addr);
    t.result.indirect_targets.insert(exp.addr);
  }
  t.drain();
  if (opts.scan_data_for_pointers) {
    t.scan_data_segments();
    t.drain();
  }
  t.finalize();
  return std::move(t.result);
}

namespace {

/// A verbatim range executes in place, so its decode stream must end where
/// the claimed stream resumes. Claims a straddling verbatim instruction
/// covers are its operand bytes, which rewriting them would corrupt: they
/// are demoted, and the range grows until the two streams meet.
void settle_verbatim_ends(const zelf::Segment& text, const AddrInsnMap& sweep, Aggregate& out) {
  std::vector<Interval> grown;
  std::uint64_t settled = 0;  // ranges ending at or below this were absorbed
  for (const Interval& range : out.ambiguous.intervals()) {
    if (range.end <= settled) continue;
    std::uint64_t addr = range.begin;
    std::uint64_t end = range.end;
    auto swept = sweep.lower_bound(addr);
    isa::Insn insn;
    while (addr < end) {
      // The same resynchronizing walk as the linear sweep, so once it lands
      // on a swept start it follows the sweep's stream: skip to the sweep's
      // last start before `end`.
      while (swept != sweep.end() && swept->first < addr) ++swept;
      if (swept != sweep.end() && swept->first == addr) {
        swept = std::prev(sweep.lower_bound(end));
        addr = swept->first;
      }
      if (!decode_at(text, addr, insn)) {
        ++addr;
        continue;
      }
      addr += insn.length;
      // decode_at stays inside the file bytes; each byte from `end` on is a
      // claimed start or ambiguous.
      while (end < addr) {
        if (const isa::Insn* claimed = out.code_insns.find(end)) {
          ZIPR_WARN << "aggregate: verbatim instruction straddles claimed code at "
                    << hex_addr(end) << "; keeping it verbatim";
          out.demoted.append(end, *claimed);
          end += claimed->length;
        } else {
          end = out.ambiguous.interval_containing(end)->end;
        }
      }
    }
    if (end > range.end) grown.push_back({range.begin, end});
    settled = end;
  }
  for (const Interval& iv : grown) {
    out.ambiguous.insert(iv);
    out.definite_code.erase(iv.begin, iv.end);
  }
  if (out.demoted.empty()) return;
  // One merge pass: both tables are sorted and every demoted entry is a claim.
  auto kept = out.code_insns.release();
  auto keep = kept.begin();
  auto next = out.demoted.begin();
  for (const auto& e : kept) {
    if (next != out.demoted.end() && next->first == e.first)
      ++next;
    else
      *keep++ = e;
  }
  kept.erase(keep, kept.end());
  out.code_insns.adopt_sorted(std::move(kept));
}

Aggregate aggregate_impl(const zelf::Segment& text, const DisasmResult& linear,
                         AddrInsnMap code_insns, IntervalSet definite_code) {
  Aggregate out;
  out.code_insns = std::move(code_insns);
  out.definite_code = std::move(definite_code);

  // Everything in the text segment's file bytes that conclusive traversal
  // did not claim is Case 2/3: kept verbatim (data) AND decodable as code.
  const std::uint64_t lo = text.vaddr;
  const std::uint64_t hi = text.vaddr + text.bytes.size();
  out.ambiguous.insert(lo, hi);
  for (const auto& iv : out.definite_code.intervals()) out.ambiguous.erase(iv.begin, iv.end);
  settle_verbatim_ends(text, linear.insns, out);

  // Count active disagreements: ambiguous ranges where linear sweep claims
  // decodable instructions (the paper's Case 3, engines disagree).
  for (const auto& iv : out.ambiguous.intervals()) {
    auto it = linear.insns.lower_bound(iv.begin);
    if (it != linear.insns.end() && it->first < iv.end) ++out.disagreements;
  }
  return out;
}

}  // namespace

Aggregate aggregate(const zelf::Segment& text, const DisasmResult& linear,
                    const TraversalResult& recursive) {
  return aggregate_impl(text, linear, recursive.dis.insns, recursive.dis.code);
}

Aggregate aggregate(const zelf::Segment& text, const DisasmResult& linear,
                    TraversalResult&& recursive) {
  return aggregate_impl(text, linear, std::move(recursive.dis.insns),
                        std::move(recursive.dis.code));
}

}  // namespace zipr::analysis
