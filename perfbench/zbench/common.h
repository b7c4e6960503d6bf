// Shared pieces of zbench: the result record every workload
// fills, order statistics, the generated inputs, poll accounting, and the
// span-by-span replay of zipr::rewrite's public composition used by the
// traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cgc/generator.h"
#include "cgc/poller.h"
#include "heap.h"
#include "trace.h"
#include "zipr/workspace.h"
#include "zipr/zipr.h"

namespace zbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Set-up repetitions spread over a run. The first ones run before the
/// first timed operation; later ones run between operations, at most one
/// per `every_s`, so the median samples the whole run instead of the host's
/// state during its first second. A repetition's allocations are kept out
/// of the run's peak heap.
class SetupReps {
 public:
  explicit SetupReps(double every_s) : every_(every_s) {}

  template <class F>
  void run(F&& f) {
    const std::int64_t peak = heap::reset_peak();
    const auto t0 = Clock::now();
    f();
    ms_.push_back(ms_since(t0));
    heap::reset_peak();
    heap::raise_peak(peak);
    next_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(every_);
  }
  bool due() const { return Clock::now() >= next_; }
  template <class F>
  void maybe(F&& f) {
    if (due()) run(f);
  }
  double median_s() const;
  const Samples& ms() const { return ms_; }

 private:
  std::chrono::duration<double> every_;
  Clock::time_point next_ = Clock::now();
  Samples ms_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< temporary files, traces and layer tables
};

/// What one run reports: operation accounting plus named metrics.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count `ops` operations as failed because a check did not hold.
  void fail(std::uint64_t ops, const std::string& why);
  std::string json() const;
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(Samples v, double q);
inline double median(Samples v) { return quantile(std::move(v), 0.5); }
inline double sum(const Samples& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}
/// The latency at the highest percentile that has at least ten samples
/// beyond it, capped at p99 (p99 once a run has 1000 or more samples).
double tail(const Samples& v);

/// The ×N synthetic binary of the rewriter's BM_RewriteLarge sweep
/// (~104 KB of text per unit of scale; that sweep uses spec seed 99),
/// assembled with the widened segment layout the larger sizes need.
zipr::cgc::CbProgram make_large_cb(int scale, std::uint64_t spec_seed = 99);

/// Every CB of cgc::cfe_corpus(), generated.
std::vector<zipr::cgc::CbProgram> make_corpus();

/// One poll per command handler of `cb`, each a single well-formed command
/// with a fixed payload, then the terminator. Independent of any seed.
std::vector<zipr::cgc::Poll> handler_polls(const zipr::cgc::CbProgram& cb);

/// Totals over a poll set run on rewritten images.
struct PollTally {
  std::uint64_t cycles = 0;  ///< VM cycles retired by the rewritten images
  std::uint64_t pages = 0;   ///< per image, max pages touched over its polls; summed
  std::uint64_t insns = 0;
  double run_ms = 0;         ///< time in vm::run_program on rewritten images
};

/// Same exit, exit status, fault and output.
bool same_behaviour(const zipr::vm::RunResult& a, const zipr::vm::RunResult& b);

/// Run every poll on `original` and `rewritten`; returns the indices of
/// the polls whose exit, fault or output differ between the two. Adds the
/// rewritten runs to `t`. Under a tracer each rewritten run is a "vm.run"
/// span.
std::vector<std::size_t> poll_mismatches(const zipr::zelf::Image& original, const zipr::zelf::Image& rewritten,
                 const std::vector<zipr::cgc::Poll>& polls, PollTally& t);

/// zipr::rewrite's public composition, one span per step: build_ir,
/// verify_mandatory, make_transform + apply for each transform (seeded by
/// derive_seed streams), verify_mandatory, Reassembler::run. Its bytes
/// must equal zipr::rewrite's for the same input, options and workspace.
zipr::Result<zipr::RewriteResult> composed_rewrite(const zipr::zelf::Image& input,
                                                   const zipr::RewriteOptions& options,
                                                   zipr::RewriteWorkspace* workspace);

/// The four analysis steps build_ir runs internally, called one by one
/// (spans analysis.sweep/traversal/aggregate/pinning), so the traced run
/// can derive build_ir's self time.
void analysis_parts(const zipr::zelf::Image& input, const zipr::RewriteOptions& options);

/// Per-round counters the traced run collects next to its spans.
class Counters {
 public:
  void add(const std::string& name, std::uint64_t round, double v) { c_[name][round] += v; }
  void set(const std::string& name, std::uint64_t round, double v) { c_[name][round] = v; }
  /// Median over the rounds the counter appeared in; 0 if it never did.
  double median_of(const std::string& name) const;

 private:
  std::map<std::string, std::map<std::uint64_t, double>> c_;
};

/// Record the stats of one rewrite in `round`'s counters.
void count_rewrite(Counters& c, std::uint64_t round, const zipr::RewriteResult& r);

/// End a traced run: emit every per-layer metric, derived from the spans
/// and counters (layers the workload does not exercise report 0), and
/// write the Chrome trace and the layer table to args.out_dir.
void finish_trace(const Args& args, const Tracer& tracer, const Counters& counters,
                  Report& report);

int run_corpus_cfi(const Args& args, Report& report);
int run_bigbin(const Args& args, Report& report);
int run_serve_mix(const Args& args, Report& report);
int run_fuzz_farm(const Args& args, Report& report);

}  // namespace zbench
