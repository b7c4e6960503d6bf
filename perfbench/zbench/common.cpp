#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/disasm.h"
#include "analysis/pinning.h"
#include "asm/assembler.h"
#include "support/rng.h"
#include "transform/api.h"
#include "vm/machine.h"
#include "zipr/reassembler.h"

namespace zbench {

using namespace zipr;

void Report::fail(std::uint64_t ops, const std::string& why) {
  correct = false;
  failed += ops;
  std::fprintf(stderr, "CHECK FAILED (%llu op(s)): %s\n", static_cast<unsigned long long>(ops),
               why.c_str());
}

std::string Report::json() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[512];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    s += buf;
  }
  s += "}}";
  return s;
}

double quantile(Samples v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double SetupReps::median_s() const { return median(ms_) / 1e3; }

double tail(const Samples& v) {
  if (v.empty()) return 0;
  const double n = static_cast<double>(v.size());
  return quantile(v, std::clamp(1.0 - 10.0 / n, 0.5, 0.99));
}

cgc::CbProgram make_large_cb(int scale, std::uint64_t spec_seed) {
  cgc::CbSpec spec;
  spec.name = "synthetic-large-x" + std::to_string(scale);
  spec.seed = spec_seed;
  spec.handlers = 24;
  spec.dispatch = cgc::DispatchMode::kFptrTable;
  spec.filler_funcs = 48 * scale;
  spec.filler_ops = 24;
  spec.straightline = 600 * scale;
  spec.scratch_pages = 4;
  spec.data_in_text = true;
  spec.payload_max = 12;
  cgc::CbProgram prog;
  prog.spec = spec;
  auto src = cgc::generate_cb_source(spec, &prog.payload_len);
  if (!src.ok()) {
    std::fprintf(stderr, "large CB generation failed: %s\n", src.error().message.c_str());
    std::exit(2);
  }
  assembler::Options opts;
  opts.emit_symbols = false;
  opts.rodata_base = 0x4000000;  // 60 MB of text headroom
  opts.data_base = 0x4100000;
  opts.bss_base = 0x4180000;
  auto img = assembler::assemble(*src, opts);
  if (!img.ok()) {
    std::fprintf(stderr, "large CB assembly failed: %s\n", img.error().message.c_str());
    std::exit(2);
  }
  prog.image = std::move(*img);
  return prog;
}

std::vector<cgc::CbProgram> make_corpus() {
  std::vector<cgc::CbProgram> out;
  for (const auto& spec : cgc::cfe_corpus()) {
    auto cb = cgc::generate_cb(spec);
    if (!cb.ok()) {
      std::fprintf(stderr, "CB %s generation failed: %s\n", spec.name.c_str(),
                   cb.error().message.c_str());
      std::exit(2);
    }
    out.push_back(std::move(*cb));
  }
  return out;
}

std::vector<cgc::Poll> handler_polls(const cgc::CbProgram& cb) {
  std::vector<cgc::Poll> polls;
  for (int h = 0; h < cb.spec.handlers; ++h) {
    cgc::Poll p;
    p.input.push_back(static_cast<Byte>(h));
    for (int k = 0; k < cb.payload_len[static_cast<std::size_t>(h)]; ++k)
      p.input.push_back(static_cast<Byte>(h * 31 + k * 7 + 1));
    p.input.push_back(0xFF);
    polls.push_back(std::move(p));
  }
  return polls;
}

bool same_behaviour(const vm::RunResult& a, const vm::RunResult& b) {
  return a.exited == b.exited && a.exit_status == b.exit_status && a.fault == b.fault &&
         a.output == b.output;
}

std::vector<std::size_t> poll_mismatches(const zelf::Image& original,
                                         const zelf::Image& rewritten,
                                         const std::vector<cgc::Poll>& polls, PollTally& t) {
  std::vector<std::size_t> mismatches;
  std::uint64_t pages = 0;
  for (std::size_t i = 0; i < polls.size(); ++i) {
    const auto& poll = polls[i];
    const auto want = vm::run_program(original, poll.input, poll.vm_seed);
    const auto t0 = Clock::now();
    vm::RunResult got;
    {
      Span s("vm.run");
      got = vm::run_program(rewritten, poll.input, poll.vm_seed);
    }
    t.run_ms += ms_since(t0);
    if (!same_behaviour(want, got)) mismatches.push_back(i);
    t.cycles += got.stats.cycles;
    t.insns += got.stats.insns;
    pages = std::max<std::uint64_t>(pages, got.stats.max_rss_pages);
  }
  t.pages += pages;
  return mismatches;
}

namespace {
const char* transform_span(const std::string& name) {
  if (name == "null") return "transform.null";
  if (name == "cfi") return "transform.cfi";
  if (name == "cov") return "transform.cov";
  if (name == "laf") return "transform.laf";
  return "transform.other";
}
}  // namespace

Result<RewriteResult> composed_rewrite(const zelf::Image& input, const RewriteOptions& options,
                                       RewriteWorkspace* workspace) {
  analysis::AnalysisScratch* scratch = workspace ? &workspace->analysis() : nullptr;
  auto built = [&] {
    Span s("analysis.build_ir");
    return analysis::build_ir(input, options.analysis, 1, scratch);
  }();
  if (!built.ok()) return built.error();
  analysis::IrProgram prog = std::move(built).value();

  auto verify = [&]() {
    Span s("transform.verify");
    return transform::verify_mandatory(prog);
  };
  ZIPR_TRY(verify());
  std::vector<std::string> names = options.transforms;
  if (names.empty()) names.push_back("null");
  std::uint64_t stream = 1;
  transform::TransformConfig tconfig;
  tconfig.cov_prune = options.cov_prune;
  transform::InstrumentationStats instrumentation;
  for (const auto& name : names) {
    Span s(transform_span(name));
    ZIPR_ASSIGN_OR_RETURN(auto t, transform::make_transform(name));
    transform::TransformContext ctx(prog, derive_seed(options.seed, stream++), tconfig);
    ZIPR_TRY(t->apply(ctx));
    instrumentation += ctx.instrumentation();
  }
  ZIPR_TRY(verify());

  rewriter::ReassemblyOptions ropts;
  ropts.placement = options.placement;
  ropts.seed = derive_seed(options.seed, 0);
  ropts.prefer_short_refs = options.prefer_short_refs.value_or(
      options.placement != rewriter::PlacementKind::kDiversity);
  ropts.coalesce =
      options.coalesce.value_or(options.placement != rewriter::PlacementKind::kDiversity);
  ropts.jobs = 1;
  ropts.arena = workspace ? workspace->arena() : nullptr;
  RewriteResult result;
  {
    Span s("zipr.reassemble");
    rewriter::Reassembler reassembler(prog, ropts);
    ZIPR_ASSIGN_OR_RETURN(result.image, reassembler.run());
    result.reassembly = reassembler.stats();
  }
  result.analysis = prog.stats;
  result.instrumentation = instrumentation;
  if (workspace) workspace->finish_cycle();
  return result;
}

void analysis_parts(const zelf::Image& input, const RewriteOptions& options) {
  const zelf::Segment& text = input.text();
  analysis::DisasmResult linear;
  {
    Span s("analysis.sweep");
    linear = analysis::linear_sweep(text, 1);
  }
  analysis::TraversalResult recursive;
  {
    Span s("analysis.traversal");
    recursive = analysis::recursive_traversal(input, options.analysis.traversal);
  }
  analysis::Aggregate agg;
  {
    Span s("analysis.aggregate");
    agg = analysis::aggregate(text, linear, std::move(recursive));
  }
  Span s("analysis.pinning");
  analysis::PinSet pins = analysis::compute_pins(input, agg, recursive, options.analysis.pinning);
  (void)pins;
}

double Counters::median_of(const std::string& name) const {
  auto it = c_.find(name);
  if (it == c_.end()) return 0;
  Samples v;
  for (const auto& [round, x] : it->second) v.push_back(x);
  return median(v);
}

void count_rewrite(Counters& c, std::uint64_t round, const RewriteResult& r) {
  c.add("analysis.code_insns", round, static_cast<double>(r.analysis.code_insns));
  c.add("analysis.pins", round, static_cast<double>(r.analysis.pins));
  c.add("analysis.verbatim_bytes", round, static_cast<double>(r.analysis.verbatim_bytes));
  c.add("analysis.disagreements", round, static_cast<double>(r.analysis.disagreements));
  c.add("transform.probes", round, static_cast<double>(r.instrumentation.probes));
  c.add("transform.compares_split", round,
        static_cast<double>(r.instrumentation.compares_split));
  c.add("zipr.dollops_placed", round, static_cast<double>(r.reassembly.dollops_placed));
  c.add("zipr.chains", round, static_cast<double>(r.reassembly.chains));
  c.add("zipr.sleds", round, static_cast<double>(r.reassembly.sleds));
  c.add("zipr.overflow_bytes", round, static_cast<double>(r.reassembly.overflow_bytes));
  c.add("zipr.jumps_elided", round, static_cast<double>(r.reassembly.jumps_elided));
  c.add("zipr.cont_jumps", round, static_cast<double>(r.reassembly.cont_jumps));
}

namespace {
/// p50 of the durations (ms) of every span with this name; 0 if none.
double span_p50_ms(const Tracer& tracer, const char* name) {
  Samples v;
  for (const auto& s : tracer.spans())
    if (std::string(s.name) == name) v.push_back((s.end_ns - s.start_ns) / 1e6);
  return median(v);
}

}  // namespace

void finish_trace(const Args& args, const Tracer& tracer, const Counters& counters,
                  Report& report) {
  const auto layers = tracer.by_layer();
  auto rounds_of = [&](const char* name) -> const std::vector<LayerRound>* {
    auto it = layers.find(name);
    return it == layers.end() ? nullptr : &it->second;
  };
  auto per_round = [&](const char* name, double (*f)(const LayerRound&)) {
    Samples v;
    if (auto* r = rounds_of(name))
      for (const auto& x : *r) v.push_back(f(x));
    return median(v);
  };
  auto self_ms = [&](const char* name) {
    return per_round(name, [](const LayerRound& r) { return r.self_ms; });
  };
  auto allocs = [&](const char* name) {
    return per_round(name, [](const LayerRound& r) { return double(r.self_allocs); });
  };
  auto peak_mb = [&](const char* name) {
    return per_round(name, [](const LayerRound& r) { return r.peak_bytes / 1048576.0; });
  };
  auto counter = [&](const char* name) { return counters.median_of(name); };

  // build_ir's own time: its span minus the four steps it runs internally,
  // which the traced run timed separately on the same input in the same
  // round.
  Samples self_v;
  if (auto* b = rounds_of("analysis.build_ir")) {
    const char* parts[] = {"analysis.sweep", "analysis.traversal", "analysis.aggregate",
                           "analysis.pinning"};
    for (std::size_t i = 0; i < b->size(); ++i) {
      double x = (*b)[i].total_ms;
      for (const char* p : parts)
        if (auto* pr = rounds_of(p); pr && i < pr->size()) x -= (*pr)[i].total_ms;
      self_v.push_back(x);
    }
  }

  const double jumps = counter("zipr.jumps_elided") + counter("zipr.cont_jumps");
  const double vm_ms = self_ms("vm.run");

  report.add("zelf.read_ms", self_ms("zelf.read"), "ms");
  report.add("zelf.write_ms", self_ms("zelf.write"), "ms");
  report.add("analysis.sweep_ms", self_ms("analysis.sweep"), "ms");
  report.add("analysis.traversal_ms", self_ms("analysis.traversal"), "ms");
  report.add("analysis.aggregate_ms", self_ms("analysis.aggregate"), "ms");
  report.add("analysis.pinning_ms", self_ms("analysis.pinning"), "ms");
  report.add("analysis.build_ir_self_ms", median(self_v), "ms");
  report.add("analysis.allocs", allocs("analysis.build_ir"), "count");
  report.add("analysis.peak_heap_mb", peak_mb("analysis.build_ir"), "MB");
  report.add("analysis.code_insns", counter("analysis.code_insns"), "count");
  report.add("analysis.pins", counter("analysis.pins"), "count");
  report.add("analysis.verbatim_bytes", counter("analysis.verbatim_bytes"), "B");
  report.add("analysis.disagreements", counter("analysis.disagreements"), "count");
  report.add("transform.verify_ms", self_ms("transform.verify"), "ms");
  report.add("transform.cfi_ms", self_ms("transform.cfi"), "ms");
  report.add("transform.cov_ms", self_ms("transform.cov"), "ms");
  report.add("transform.laf_ms", self_ms("transform.laf"), "ms");
  report.add("transform.probes", counter("transform.probes"), "count");
  report.add("transform.compares_split", counter("transform.compares_split"), "count");
  report.add("zipr.reassemble_ms", self_ms("zipr.reassemble"), "ms");
  report.add("zipr.allocs", allocs("zipr.reassemble"), "count");
  report.add("zipr.peak_heap_mb", peak_mb("zipr.reassemble"), "MB");
  report.add("zipr.dollops_placed", counter("zipr.dollops_placed"), "count");
  report.add("zipr.chains", counter("zipr.chains"), "count");
  report.add("zipr.sleds", counter("zipr.sleds"), "count");
  report.add("zipr.elision_rate", jumps > 0 ? counter("zipr.jumps_elided") / jumps : 0, "ratio");
  report.add("zipr.overflow_bytes", counter("zipr.overflow_bytes"), "B");
  report.add("vm.run_ms", vm_ms, "ms");
  report.add("vm.insns", counter("vm.insns"), "count");
  report.add("vm.mips", vm_ms > 0 ? counter("vm.insns") / (vm_ms * 1e3) : 0, "MIPS");
  report.add("serve.hit_us", span_p50_ms(tracer, "serve.hit") * 1e3, "us");
  report.add("serve.delta_ms", span_p50_ms(tracer, "serve.delta"), "ms");
  report.add("serve.cold_ms", span_p50_ms(tracer, "serve.cold"), "ms");
  report.add("serve.hits", counter("serve.hits"), "count");
  report.add("serve.delta_hits", counter("serve.delta_hits"), "count");
  report.add("serve.delta_fallbacks", counter("serve.delta_fallbacks"), "count");
  report.add("serve.delta_yield", counter("serve.delta_yield"), "ratio");
  report.add("serve.cold", counter("serve.cold"), "count");
  report.add("serve.evictions", counter("serve.evictions"), "count");
  report.add("serve.replay_ms", self_ms("serve.replay"), "ms");
  report.add("fuzz.exec_us", span_p50_ms(tracer, "fuzz.exec") * 1e3, "us");
  report.add("fuzz.corpus_entries", counter("fuzz.corpus_entries"), "count");
  report.add("fuzz.crashing_execs", counter("fuzz.crashing_execs"), "count");
  report.add("farm.epochs", counter("farm.epochs"), "count");
  report.add("farm.import_yield", counter("farm.import_yield"), "ratio");
  report.add("farm.shard_imbalance", counter("farm.shard_imbalance"), "ratio");
  report.add("trace.overhead_pct", counter("trace.overhead_pct"), "%");

  if (!tracer.write_chrome_json(args.out_dir + "/trace-" + args.workload + ".json") ||
      !tracer.write_layer_table(args.out_dir + "/layers-" + args.workload + ".txt"))
    std::fprintf(stderr, "cannot write the trace files to %s\n", args.out_dir.c_str());
}

}  // namespace zbench
