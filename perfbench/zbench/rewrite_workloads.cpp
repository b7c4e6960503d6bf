// corpus-cfi and bigbin: file->file rewriting. One operation reads a ZELF
// file from bytes, rewrites it and serializes the result; a round is one
// pass over the workload's files in a seeded order.
#include <algorithm>
#include <cstdio>

#include "cgc/exploits.h"
#include "common.h"
#include "fuzz/executor.h"
#include "heap.h"
#include "support/rng.h"
#include "zelf/io.h"

namespace zbench {

using namespace zipr;

namespace {

struct Subject {
  const cgc::CbProgram* cb = nullptr;
  Bytes bytes;                  ///< the input file
  std::vector<cgc::Poll> polls;
  Bytes reference;              ///< the first cold rewrite's output file
  std::uint64_t ops = 0;        ///< operations run on this subject
};

struct FileWorkload {
  RewriteOptions options;
  bool workspace = false;       ///< rewrite through one recycled RewriteWorkspace
  int setup_reps = 3;           ///< set-ups before the timed rounds
  double setup_every_s = 1;     ///< then one between rounds this often
  /// The polls are fixed inputs (one per handler) and are replayed on every
  /// round's output as operations of their own.
  bool fixed_polls = false;
  /// Fixed polls whose mismatch is a known rewriter fault on this
  /// workload's seed-independent input. Such a poll fails in every round of
  /// every run, so it is counted in `failed`; a mismatch on any other poll
  /// fails the run.
  std::vector<std::size_t> known_bad_polls;
};

bool is_known(const std::vector<std::size_t>& known, std::size_t p) {
  return std::find(known.begin(), known.end(), p) != known.end();
}

/// Replay `polls` on `image` through one persistent executor.
std::vector<vm::RunResult> replay(const zelf::Image& image, const std::vector<cgc::Poll>& polls) {
  fuzz::Executor ex(image);
  std::vector<vm::RunResult> out;
  for (const auto& p : polls) {
    auto r = ex.execute(p.input, p.vm_seed);
    out.push_back(r.ok() ? std::move(r->run) : vm::RunResult{});
  }
  return out;
}

/// One operation: read, rewrite, serialize.
Result<Bytes> file_to_file(const Bytes& in, const RewriteOptions& options, RewriteWorkspace* ws,
                           bool composed, RewriteResult* stats = nullptr) {
  zelf::Image img;
  {
    Span s("zelf.read");
    ZIPR_ASSIGN_OR_RETURN(img, zelf::read_image(in));
  }
  ExecPolicy exec;
  exec.workspace = ws;
  auto r = composed ? composed_rewrite(img, options, ws) : rewrite(img, options, exec);
  if (!r.ok()) return r.error();
  Span s("zelf.write");
  Bytes out = zelf::write_image(r->image);
  if (stats) *stats = std::move(*r);
  return out;
}

int run_files(const Args& args, std::vector<Subject>& subjects, const FileWorkload& w,
              Report& report) {
  std::size_t text_bytes = 0;
  for (const auto& s : subjects) text_bytes += s.cb->image.text().bytes.size();

  // Set-up: loading the files and the first cold rewrite of each, with
  // fresh state (a fresh workspace where one is used). The first
  // repetition's outputs are the references every later rewrite must
  // reproduce, and its workspace serves the timed rounds.
  SetupReps setups(w.setup_every_s);
  std::unique_ptr<RewriteWorkspace> ws;
  std::vector<Bytes> outs;
  bool setup_failed = false;
  auto setup = [&] {
    auto fresh = w.workspace ? std::make_unique<RewriteWorkspace>() : nullptr;
    outs.clear();
    for (auto& s : subjects) {
      auto out = file_to_file(s.bytes, w.options, fresh.get(), false);
      if (!out.ok()) {
        std::fprintf(stderr, "set-up rewrite of %s failed: %s\n", s.cb->spec.name.c_str(),
                     out.error().message.c_str());
        setup_failed = true;
        return;
      }
      outs.push_back(std::move(*out));
    }
    if (!ws) ws = std::move(fresh);
  };
  auto check_setup = [&] {
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (subjects[i].reference.empty()) subjects[i].reference = std::move(outs[i]);
      else if (outs[i] != subjects[i].reference)
        report.fail(1, subjects[i].cb->spec.name + ": set-up rewrites differ");
    }
    outs = {};
  };
  for (int rep = 0; rep < w.setup_reps && !setup_failed; ++rep) {
    setups.run(setup);
    check_setup();
  }
  if (setup_failed) return 1;

  std::vector<std::vector<vm::RunResult>> expected;
  std::vector<std::vector<int>> poll_fails;  ///< per subject and poll: -1 unseen, 0 ok, 1 failed
  for (const auto& s : subjects) {
    expected.push_back(w.fixed_polls ? replay(s.cb->image, s.polls) : std::vector<vm::RunResult>{});
    poll_fails.emplace_back(s.polls.size(), -1);
  }

  Tracer tracer;
  Counters counters;

  // Timed window: whole passes until the time is up. The traced run
  // alternates an untraced pass with a traced pass of the composed
  // pipeline, so both see the same process state.
  Samples op_ms, pass_ms, traced_pass_ms;
  heap::reset_peak();
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  std::uint64_t round = 0;
  do {
    for (int traced = 0; traced <= (args.trace ? 1 : 0); ++traced) {
      Tracer::install(traced ? &tracer : nullptr);
      tracer.set_round(round);
      double pass = 0;
      for (std::size_t i = 0; i < subjects.size(); ++i) {
        auto& s = subjects[i];
        tracer.set_op(i);
        RewriteResult stats;
        const auto t0 = Clock::now();
        Result<Bytes> out = Bytes{};
        {
          Span op("op");
          out = file_to_file(s.bytes, w.options, ws.get(), traced != 0, &stats);
        }
        const double ms = ms_since(t0);
        pass += ms;
        ++report.attempted;
        if (!out.ok()) {
          report.fail(1, s.cb->spec.name + ": rewrite failed: " + out.error().message);
          continue;
        }
        if (*out != s.reference)
          report.fail(1, s.cb->spec.name + (traced ? ": composed pipeline bytes differ from "
                                                     "zipr::rewrite"
                                                   : ": rewrite not reproducible"));
        if (w.fixed_polls) {
          report.attempted += s.polls.size();
          auto img = zelf::read_image(*out);
          if (!img.ok()) {
            report.fail(s.polls.size(), s.cb->spec.name + ": output does not parse");
            continue;
          }
          const auto got = replay(*img, s.polls);
          for (std::size_t p = 0; p < s.polls.size(); ++p) {
            const int failed = same_behaviour(expected[i][p], got[p]) ? 0 : 1;
            const std::string poll = s.cb->spec.name + ": poll " + std::to_string(p);
            if (failed && is_known(w.known_bad_polls, p)) ++report.failed;
            else if (failed) report.fail(1, poll + " does not behave like the original");
            if (poll_fails[i][p] >= 0 && poll_fails[i][p] != failed)
              report.fail(1, poll + " behaves differently from one round to the next");
            poll_fails[i][p] = failed;
          }
        }
        if (traced) {
          count_rewrite(counters, round, stats);
          auto img = zelf::read_image(s.bytes);
          if (img.ok()) analysis_parts(*img, w.options);
        } else {
          op_ms.push_back(ms);
          ++s.ops;
        }
      }
      (traced ? traced_pass_ms : pass_ms).push_back(pass);
    }
    Tracer::install(nullptr);
    setups.maybe(setup);
    check_setup();
    if (setup_failed) return 1;
    ++round;
  } while (Clock::now() < deadline);
  const double peak_mb = heap::peak() / 1048576.0;

  // Behaviour: every poll on every rewritten file gives the original's
  // exit and output. A mismatch fails every operation on that file, except
  // on a known-bad fixed poll, which was counted round by round.
  PollTally polls;
  if (args.trace) Tracer::install(&tracer);
  tracer.set_round(0);
  for (auto& s : subjects) {
    auto img = zelf::read_image(s.reference);
    if (!img.ok()) {
      report.fail(s.ops, s.cb->spec.name + ": rewritten file does not parse");
      continue;
    }
    for (std::size_t p : poll_mismatches(s.cb->image, *img, s.polls, polls)) {
      if (is_known(w.known_bad_polls, p)) continue;
      report.fail(s.ops, s.cb->spec.name + ": rewritten file does not behave like the original");
      break;
    }
  }
  Tracer::install(nullptr);

  std::size_t out_bytes = 0;
  for (const auto& s : subjects) out_bytes += s.reference.size();

  if (!args.trace) {
    report.add("setup_s", setups.median_s(), "s");
    report.add("rewrite_mb_per_s", text_bytes * pass_ms.size() / 1e6 / (sum(pass_ms) / 1e3),
               "MB/s");
    report.add("op_p50_ms", quantile(op_ms, 0.5), "ms");
    report.add("op_tail_ms", tail(op_ms), "ms");
    report.add("ops_per_s", op_ms.size() / (sum(op_ms) / 1e3), "op/s");
    report.add("peak_heap_mb", peak_mb, "MB");
    report.add("out_bytes", static_cast<double>(out_bytes), "B");
    report.add("poll_cycles", static_cast<double>(polls.cycles), "cycles");
    report.add("poll_pages", static_cast<double>(polls.pages), "pages");
  } else {
    counters.set("vm.insns", 0, static_cast<double>(polls.insns));
    counters.set("trace.overhead_pct", 0,
                 (median(traced_pass_ms) / median(pass_ms) - 1.0) * 100.0);
    finish_trace(args, tracer, counters, report);
  }
  return 0;
}

/// `polls_per_cb` seeded polls per CB, or with 0 the fixed handler polls.
std::vector<Subject> subjects_of(const std::vector<cgc::CbProgram>& cbs, const Args& args,
                                 int polls_per_cb) {
  std::vector<Subject> subjects;
  for (std::size_t i = 0; i < cbs.size(); ++i) {
    Subject s;
    s.cb = &cbs[i];
    s.bytes = zelf::write_image(cbs[i].image);
    s.polls = polls_per_cb > 0
                  ? cgc::make_polls(cbs[i], polls_per_cb, derive_seed(args.seed, 100 + i))
                  : handler_polls(cbs[i]);
    subjects.push_back(std::move(s));
  }
  // Seeded operation order (the same in every pass).
  Rng rng(derive_seed(args.seed, 1));
  for (std::size_t i = subjects.size(); i > 1; --i)
    std::swap(subjects[i - 1], subjects[rng.below(i)]);
  return subjects;
}

}  // namespace

int run_corpus_cfi(const Args& args, Report& report) {
  const auto corpus = make_corpus();
  auto subjects = subjects_of(corpus, args, 24);
  FileWorkload w;
  w.options.transforms = {"cfi"};
  w.options.placement = rewriter::PlacementKind::kNearfit;
  w.options.seed = args.seed;
  w.setup_reps = 5;
  if (int rc = run_files(args, subjects, w, report); rc != 0) return rc;

  // Security under CFI: every exploit CFI is meant to block leaks nothing
  // from the rewritten binary, and benign input still behaves as before.
  for (const auto& v : cgc::vulnerable_corpus()) {
    if (v.blocking_transform != "cfi") continue;
    ++report.attempted;
    auto r = rewrite(v.image, w.options);
    if (!r.ok()) {
      report.fail(1, v.name + ": CFI rewrite failed: " + r.error().message);
      continue;
    }
    const auto outcome = cgc::assess(v, r->image);
    if (!outcome.benign_works || outcome.exploit_leaked)
      report.fail(1, v.name + (outcome.exploit_leaked ? ": exploit leaked under CFI"
                                                      : ": benign input broken under CFI"));
  }
  return 0;
}

int run_bigbin(const Args& args, Report& report) {
  const std::vector<cgc::CbProgram> big = {make_large_cb(50)};
  auto subjects = subjects_of(big, args, 0);
  FileWorkload w;
  w.fixed_polls = true;
  // The rewritten ×50 spec-99 image faults (kBadInsn) on handler 21's poll,
  // where the original exits normally.
  w.known_bad_polls = {21};
  w.options.placement = rewriter::PlacementKind::kNearfit;
  w.options.seed = args.seed;
  w.workspace = true;
  w.setup_reps = 2;
  w.setup_every_s = 3;
  return run_files(args, subjects, w, report);
}

}  // namespace zbench
