// fuzz-farm: fixed-budget farm campaigns (2 shards, 2 workers) over the
// cov-instrumented vuln_fptr and the laf+cov-instrumented vuln_magic. A
// round runs both campaigns, then replays each campaign's corpus and
// crashes through a persistent Executor (the per-exec latency samples).
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <thread>

#include "cgc/exploits.h"
#include "common.h"
#include "farm/farm.h"
#include "fuzz/executor.h"
#include "fuzz/fuzzer.h"
#include "heap.h"
#include "zelf/io.h"

namespace zbench {

using namespace zipr;

namespace {

struct Target {
  const cgc::VulnCb* vuln = nullptr;
  std::vector<std::string> transforms;
  std::uint64_t budget = 0;
  zelf::Image instrumented;
  Bytes file;                 ///< serialized instrumented image
  std::uint64_t digest = 0;   ///< campaign result identity of the first round
  std::vector<Bytes> fixed;   ///< seed-independent replay inputs
  /// The input is the code pointer the program calls (vuln_fptr), so every
  /// input but the benign one hijacks control flow. A hijack into original
  /// text can exit cleanly on the original and fault only on the rewritten
  /// image, whose original text is reclaimed, so not every crash of such a
  /// target faults on the original.
  bool input_is_pointer = false;
};

/// The benign and exploit inputs, every single-bit flip of the benign
/// input, and every value of its first byte: a fixed input set whose
/// replay cost does not depend on what a seeded campaign happened to find.
std::vector<Bytes> fixed_inputs(const cgc::VulnCb& v) {
  std::vector<Bytes> out = {v.benign_input, v.exploit_input};
  for (std::size_t i = 0; i < v.benign_input.size() * 8; ++i) {
    out.push_back(v.benign_input);
    out.back()[i / 8] ^= static_cast<Byte>(1u << (i % 8));
  }
  for (int b = 0; b < 256; ++b) {
    out.push_back(v.benign_input);
    out.back()[0] = static_cast<Byte>(b);
  }
  return out;
}

std::uint64_t fnv(std::uint64_t h, const Bytes& b) {
  for (Byte x : b) h = (h ^ x) * 1099511628211ull;
  return (h ^ 0xa5) * 1099511628211ull;
}

std::uint64_t campaign_digest(const farm::FarmResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& e : r.corpus) h = fnv(fnv(h, e.input), e.map);
  for (const auto& c : r.crashes) {
    h = fnv(h, c.crash.input);
    h = (h ^ c.crash.fault_pc) * 1099511628211ull;
    h = (h ^ c.crash.path) * 1099511628211ull;
  }
  return h;
}

const cgc::VulnCb& find(const std::vector<cgc::VulnCb>& vulns, const char* name) {
  for (const auto& v : vulns)
    if (v.name == name) return v;
  std::fprintf(stderr, "planted-bug corpus has no %s\n", name);
  std::exit(2);
}

}  // namespace

int run_fuzz_farm(const Args& args, Report& report) {
  const auto vulns = cgc::vulnerable_corpus();
  // Budgets: the farm finds the magic-gated bug by its 9th sync epoch
  // (about 13k execs) on every seed tried; 24k leaves room.
  std::vector<Target> targets(2);
  targets[0].vuln = &find(vulns, "vuln_fptr");
  targets[0].transforms = {"cov"};
  targets[0].budget = 20000;
  targets[0].input_is_pointer = true;
  targets[1].vuln = &find(vulns, "vuln_magic");
  targets[1].transforms = {"laf", "cov"};
  targets[1].budget = 24000;
  // The guest random() seed every stream of a campaign shares, so replays
  // see the same guest behaviour as the campaign did.
  fuzz::FuzzOptions guest;
  guest.seed = args.seed;
  const std::uint64_t guest_seed = fuzz::Fuzzer(targets[0].vuln->image, guest).guest_seed();
  std::size_t text_bytes = 0;
  for (auto& t : targets) {
    text_bytes += t.vuln->image.text().bytes.size();
    t.fixed = fixed_inputs(*t.vuln);
  }

  Tracer tracer;
  Counters counters;

  // Set-up: the instrumenting rewrites. Each takes tens of microseconds,
  // so they are repeated in batches: 41 before the first campaign, then 8
  // after every campaign, and the median is reported. The first output is
  // the image the campaigns fuzz; every later one must match it.
  SetupReps setups(0);
  std::vector<Bytes> files;
  bool setup_failed = false;
  auto setup = [&] {
    files.clear();
    for (auto& t : targets) {
      RewriteOptions o;
      o.seed = args.seed;
      o.transforms = t.transforms;
      auto r = rewrite(t.vuln->image, o);
      if (!r.ok()) {
        std::fprintf(stderr, "instrumenting %s failed: %s\n", t.vuln->name.c_str(),
                     r.error().message.c_str());
        setup_failed = true;
        return;
      }
      files.push_back(zelf::write_image(r->image));
      if (t.file.empty()) t.instrumented = std::move(r->image);
    }
  };
  auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps && !setup_failed; ++rep) {
      setups.run(setup);
      for (std::size_t i = 0; i < files.size(); ++i) {
        if (targets[i].file.empty()) targets[i].file = std::move(files[i]);
        else if (files[i] != targets[i].file)
          report.fail(1, targets[i].vuln->name + ": instrumenting rewrite not reproducible");
      }
    }
    return !setup_failed;
  };
  if (!set_up(41)) return 1;

  // The traced run replays the instrumenting rewrites through the composed
  // pipeline, one round per repetition.
  if (args.trace) {
    Tracer::install(&tracer);
    for (std::uint64_t rep = 0; rep < 41; ++rep) {
      tracer.set_round(rep);
      for (auto& t : targets) {
        RewriteOptions o;
        o.seed = args.seed;
        o.transforms = t.transforms;
        auto r = composed_rewrite(t.vuln->image, o, nullptr);
        ++report.attempted;
        if (!r.ok() || zelf::write_image(r->image) != t.file) {
          report.fail(1, t.vuln->name + ": composed pipeline bytes differ from zipr::rewrite");
          continue;
        }
        count_rewrite(counters, rep, *r);
        analysis_parts(t.vuln->image, o);
      }
    }
    Tracer::install(nullptr);
  }

  Samples exec_ms, campaign_ms, traced_campaign_ms;
  std::uint64_t campaign_execs = 0;
  double campaign_total_ms = 0;
  std::vector<farm::FarmResult> first(targets.size());
  heap::reset_peak();
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  std::uint64_t round = 0;
  do {
    for (int traced = 0; traced <= (args.trace ? 1 : 0); ++traced) {
      Tracer::install(traced ? &tracer : nullptr);
      tracer.set_round(round);
      double round_campaign_ms = 0;
      for (std::size_t ti = 0; ti < targets.size(); ++ti) {
        auto& t = targets[ti];
        farm::FarmOptions fo;
        fo.seed = args.seed;
        fo.shards = 2;
        fo.jobs = static_cast<int>(std::min(2u, std::max(1u, std::thread::hardware_concurrency())));
        fo.max_execs = t.budget;
        const auto t0 = Clock::now();
        Result<farm::FarmResult> res = Error::internal("not run");
        {
          Span s("farm.campaign");
          res = farm::run_campaign(t.instrumented, {t.vuln->benign_input}, fo);
        }
        const double ms = ms_since(t0);
        round_campaign_ms += ms;
        if (!res.ok()) {
          ++report.attempted;
          report.fail(1, t.vuln->name + ": campaign failed: " + res.error().message);
          continue;
        }
        const auto& st = res->stats;
        report.attempted += st.execs;
        if (!traced) {
          campaign_execs += st.execs;
          campaign_total_ms += ms;
        }

        // The planted bug is rediscovered within the budget: some deduped
        // crash faults on the uninstrumented original too, and unless the
        // input is a code pointer every deduped crash does. Every deduped
        // crash reproduces its recorded fault on the instrumented image.
        bool found = false, all_fault = true, reproduced = true;
        for (const auto& c : res->crashes) {
          const auto orig = vm::run_program(t.vuln->image, c.crash.input, guest_seed);
          const bool faults = !orig.exited && orig.fault != vm::Fault::kGasExhausted;
          found |= faults;
          all_fault &= faults;
          const auto again = vm::run_program(t.instrumented, c.crash.input, guest_seed, fo.limits);
          reproduced &= !again.exited && again.fault == c.crash.fault;
        }
        const bool faults_ok = all_fault || t.input_is_pointer;
        const std::uint64_t digest = campaign_digest(*res);
        if (round == 0 && traced == 0) t.digest = digest;
        if (!found || !faults_ok || !reproduced || digest != t.digest)
          report.fail(st.execs, t.vuln->name + (!found       ? ": planted bug not rediscovered"
                                               : !faults_ok  ? ": a crash does not fault on the original"
                                               : !reproduced ? ": a crash does not reproduce"
                                                             : ": campaign not reproducible"));

        // Per-exec latency on one persistent executor: the untimed rounds
        // replay the fixed inputs (their samples), the traced rounds the
        // campaign's corpus and crash inputs ("fuzz.exec" spans).
        fuzz::Executor ex(t.instrumented, fo.limits);
        std::vector<const Bytes*> inputs;
        if (traced) {
          for (const auto& e : res->corpus) inputs.push_back(&e.input);
          for (const auto& c : res->crashes) inputs.push_back(&c.crash.input);
        } else {
          for (const auto& in : t.fixed) inputs.push_back(&in);
        }
        for (const Bytes* in : inputs) {
          const auto q0 = Clock::now();
          Result<fuzz::ExecResult> er = Error::internal("not run");
          {
            Span s("fuzz.exec");
            er = ex.execute(*in, guest_seed);
          }
          const double q = ms_since(q0);
          ++report.attempted;
          if (!er.ok()) {
            report.fail(1, t.vuln->name + ": replay failed: " + er.error().message);
            continue;
          }
          if (!traced) exec_ms.push_back(q);
        }
        if (!traced) {
          Tracer::install(nullptr);
          if (!set_up(8)) return 1;
        }
        if (traced) {
          counters.add("fuzz.corpus_entries", round, static_cast<double>(res->corpus.size()));
          counters.add("fuzz.crashing_execs", round, static_cast<double>(st.crashing_execs));
          counters.add("farm.epochs", round, static_cast<double>(st.epochs));
          const double offered = static_cast<double>(st.imported_entries + st.rejected_duplicates);
          counters.add("farm.import_yield", round,
                       offered > 0 ? st.imported_entries / offered / targets.size() : 0);
          std::uint64_t lo = ~0ull, hi = 0;
          for (const auto& sh : st.shards) {
            lo = std::min(lo, sh.execs);
            hi = std::max(hi, sh.execs);
          }
          counters.add("farm.shard_imbalance", round,
                       lo > 0 ? static_cast<double>(hi) / lo / targets.size() : 0);
        }
        if (round == 0 && traced == 0) first[ti] = std::move(*res);
      }
      (traced ? traced_campaign_ms : campaign_ms).push_back(round_campaign_ms);
    }
    ++round;
  } while (Clock::now() < deadline);
  Tracer::install(nullptr);
  const double peak_mb = heap::peak() / 1048576.0;

  // Behaviour: the fixed inputs that do not hijack control flow, and every
  // corpus entry of the first round, give the same exit and output on the
  // instrumented image as on the original wherever the original exits
  // normally. (A hijacked jump may land in original text the rewritten
  // image no longer holds.) The poll figures count the fixed inputs only,
  // so they do not vary by seed.
  PollTally polls, seeded;
  if (args.trace) Tracer::install(&tracer);
  tracer.set_round(0);
  for (std::size_t ti = 0; ti < targets.size(); ++ti) {
    const auto& t = targets[ti];
    auto exits = [&](const Bytes& in) {
      return vm::run_program(t.vuln->image, in, guest_seed).exited;
    };
    std::vector<cgc::Poll> fixed, found;
    for (const auto& in : t.fixed)
      if ((!t.input_is_pointer || in == t.vuln->benign_input) && exits(in))
        fixed.push_back({in, guest_seed});
    for (const auto& e : first[ti].corpus)
      if (exits(e.input)) found.push_back({e.input, guest_seed});
    if (!poll_mismatches(t.vuln->image, t.instrumented, fixed, polls).empty() ||
        !poll_mismatches(t.vuln->image, t.instrumented, found, seeded).empty())
      report.fail(1, t.vuln->name + ": instrumented image does not behave like the original");
  }
  Tracer::install(nullptr);

  std::size_t out_bytes = 0;
  for (const auto& t : targets) out_bytes += t.file.size();

  if (!args.trace) {
    report.add("setup_s", setups.median_s(), "s");
    report.add("rewrite_mb_per_s",
               text_bytes * setups.ms().size() / 1e6 / (sum(setups.ms()) / 1e3), "MB/s");
    report.add("op_p50_ms", quantile(exec_ms, 0.5), "ms");
    report.add("op_tail_ms", tail(exec_ms), "ms");
    report.add("ops_per_s", campaign_execs / (campaign_total_ms / 1e3), "op/s");
    report.add("peak_heap_mb", peak_mb, "MB");
    report.add("out_bytes", static_cast<double>(out_bytes), "B");
    report.add("poll_cycles", static_cast<double>(polls.cycles), "cycles");
    report.add("poll_pages", static_cast<double>(polls.pages), "pages");
  } else {
    counters.set("vm.insns", 0, static_cast<double>(polls.insns));
    counters.set("trace.overhead_pct", 0,
                 (median(traced_campaign_ms) / median(campaign_ms) - 1.0) * 100.0);
    finish_trace(args, tracer, counters, report);
  }
  return 0;
}

}  // namespace zbench
