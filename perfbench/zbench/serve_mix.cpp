// serve-mix: one ServeEngine, driven closed-loop by one client through
// handle(). Each round builds a fresh engine that re-attaches the cache
// file an untimed phase persisted, then serves the same request sequence.
// The sequence's make-up is fixed (see README.md) and the seed only picks
// the edited binaries, the edited bytes and the order, so the mix cannot
// shift with speed or seed and the latency quantiles fall inside stable
// request classes: p50 inside the small-CB cache hits, the tail (p99) inside
// the cold ×10 rewrites.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>

#include "common.h"
#include "heap.h"
#include "serve/engine.h"
#include "support/rng.h"
#include "zelf/io.h"

namespace zbench {

using namespace zipr;

namespace {

enum class Kind { kRepeat, kDataEdit, kTextEdit, kNew };

/// One distinct (input, options) request.
struct Request {
  Request(Kind k, const cgc::CbProgram* c, int o, Bytes in)
      : kind(k), cb(c), option(o), input(std::move(in)) {}
  Kind kind;
  const cgc::CbProgram* cb;
  int option;
  Bytes input;
  std::size_t text_bytes = 0;
  Bytes reference;        ///< direct zipr::rewrite of the same input and options
  std::uint64_t ops = 0;  ///< timed requests made for it
};

/// The four option sets requests draw from; the last is coverage.
constexpr int kOptionSets = 4;
RewriteOptions option_set(int k) {
  RewriteOptions o;
  switch (k) {
    case 0: o.placement = rewriter::PlacementKind::kNearfit; break;
    case 1: o.placement = rewriter::PlacementKind::kNearfit; o.transforms = {"cfi"}; break;
    case 2: o.placement = rewriter::PlacementKind::kDiversity; break;
    default: o.placement = rewriter::PlacementKind::kPinPage; o.transforms = {"cov"}; break;
  }
  return o;
}

/// Flip one seeded bit in the last 64 file bytes of the last non-text
/// segment: the kind of data-page change a rebuilt binary carries.
Bytes edit_data(const Bytes& input, Rng& rng) {
  auto img = zelf::read_image(input);
  zelf::Segment* victim = nullptr;
  for (auto& seg : img->segments)
    if (!seg.executable() && !seg.bytes.empty()) victim = &seg;
  const std::size_t n = victim->bytes.size();
  const std::size_t span = std::min<std::size_t>(n, 64);
  victim->bytes[n - 1 - rng.below(span)] ^= static_cast<Byte>(1u << rng.below(8));
  return zelf::write_image(*img);
}

/// Flip the low bit of the last text byte: a code change, which must
/// always be rewritten cold.
Bytes edit_text(const Bytes& input) {
  auto img = zelf::read_image(input);
  img->text().bytes.back() ^= 0x01;
  return zelf::write_image(*img);
}

Bytes read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

bool write_file(const std::string& path, const Bytes& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()), static_cast<std::streamsize>(b.size()));
  return static_cast<bool>(f);
}

}  // namespace

int run_serve_mix(const Args& args, Report& report) {
  const auto corpus = make_corpus();
  const std::vector<cgc::CbProgram> bigs = {make_large_cb(10, 99), make_large_cb(10, 100)};
  Rng rng(derive_seed(args.seed, 2));

  // Distinct requests. The first ones are persisted: every corpus CB and
  // each ×10 binary under null/nearfit.
  std::vector<Request> reqs;
  std::vector<Bytes> plain;
  for (const auto& cb : corpus) plain.push_back(zelf::write_image(cb.image));
  for (const auto& b : bigs) plain.push_back(zelf::write_image(b.image));
  auto cb_at = [&](std::size_t i) { return i < corpus.size() ? &corpus[i] : &bigs[i - corpus.size()]; };
  const std::size_t n_persisted = plain.size();
  for (std::size_t i = 0; i < plain.size(); ++i) reqs.emplace_back(Kind::kRepeat, cb_at(i), 0, plain[i]);
  // Every corpus CB under the three other option sets, each ×10 binary
  // under the two other non-coverage sets (cov on a ×10 binary takes about
  // 50 times a null rewrite, so one such request would be most of a
  // round's served time); ×10 text edits under the three non-coverage sets;
  // one data edit of each ×10 binary.
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const int sets = i < corpus.size() ? kOptionSets : kOptionSets - 1;
    for (int k = 1; k < sets; ++k) reqs.emplace_back(Kind::kNew, cb_at(i), k, plain[i]);
  }
  for (std::size_t i = corpus.size(); i < plain.size(); ++i) {
    for (int k = 0; k < kOptionSets - 1; ++k)
      reqs.emplace_back(Kind::kTextEdit, cb_at(i), k, edit_text(plain[i]));
    reqs.emplace_back(Kind::kDataEdit, cb_at(i), 0, edit_data(plain[i], rng));
  }
  // 24 data edits and 16 text edits of seeded corpus CBs, under null/nearfit.
  std::vector<std::size_t> order(corpus.size());
  std::iota(order.begin(), order.end(), 0);
  auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  };
  shuffle(order);
  for (std::size_t j = 0; j < 24; ++j)
    reqs.emplace_back(Kind::kDataEdit, &corpus[order[j]], 0, edit_data(plain[order[j]], rng));
  shuffle(order);
  for (std::size_t j = 0; j < 16; ++j)
    reqs.emplace_back(Kind::kTextEdit, &corpus[order[j]], 0, edit_text(plain[order[j]]));

  // The sequence: six exact repeats of every persisted request, and every
  // other request once, in seeded order.
  std::vector<std::size_t> seq;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    for (int k = 0; k < (i < n_persisted ? 6 : 1); ++k) seq.push_back(i);
  shuffle(seq);

  // References: a direct zipr::rewrite of each request, independent of
  // the engine. Every request of the mix is one the rewriter accepts.
  for (auto& r : reqs) {
    auto img = zelf::read_image(r.input);
    if (!img.ok()) {
      std::fprintf(stderr, "request input of %s does not parse: %s\n", r.cb->spec.name.c_str(),
                   img.error().message.c_str());
      return 1;
    }
    r.text_bytes = img->text().bytes.size();
    auto out = rewrite(*img, option_set(r.option));
    if (!out.ok()) {
      std::fprintf(stderr, "CHECK FAILED: direct rewrite of %s under option set %d: %s\n",
                   r.cb->spec.name.c_str(), r.option, out.error().message.c_str());
      return 1;
    }
    r.reference = zelf::write_image(out->image);
  }

  // Untimed phase: persist the cache file, then keep its bytes so every
  // round re-attaches the same file.
  const std::string cache_path = args.out_dir + "/serve-mix.cache";
  std::remove(cache_path.c_str());
  serve::ServeOptions sopts;
  sopts.jobs = 1;
  sopts.cache_file = cache_path;
  // Extra set-ups between requests attach their own copy of the file: an
  // attached file is compacted and appended to by its engine.
  const std::string setup_path = args.out_dir + "/serve-mix-setup.cache";
  serve::ServeOptions setup_opts = sopts;
  setup_opts.cache_file = setup_path;
  {
    serve::ServeEngine engine(sopts);
    for (std::size_t i = 0; i < n_persisted; ++i) {
      auto r = engine.handle(reqs[i].input, option_set(reqs[i].option));
      if (!r.ok()) {
        std::fprintf(stderr, "persisting %s failed: %s\n", reqs[i].cb->spec.name.c_str(),
                     r.error().message.c_str());
        return 1;
      }
    }
  }
  const Bytes cache_file = read_file(cache_path);

  Tracer tracer;
  Counters counters;
  // Set-up: building an engine and replaying its cache file. Each round's
  // own engine is one sample; further ones are built and dropped between
  // requests about once a second.
  SetupReps setups(1.0);
  auto extra_setup = [&] {
    if (!setups.due() || !write_file(setup_path, cache_file)) return;
    setups.run([&] { serve::ServeEngine e(setup_opts); });
  };
  Samples lat, round_ms, traced_round_ms;
  double cold_ms = 0, cold_text = 0;
  std::size_t out_bytes = 0;
  std::uint64_t data_edits = 0;
  for (const auto& r : reqs) data_edits += r.kind == Kind::kDataEdit;
  heap::reset_peak();
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  std::uint64_t round = 0;
  do {
    for (int traced = 0; traced <= (args.trace ? 1 : 0); ++traced) {
      if (!write_file(cache_path, cache_file)) {
        std::fprintf(stderr, "cannot write %s\n", cache_path.c_str());
        return 1;
      }
      Tracer::install(traced ? &tracer : nullptr);
      tracer.set_round(round);
      std::unique_ptr<serve::ServeEngine> engine;
      auto build = [&] {
        Span s("serve.replay");
        engine = std::make_unique<serve::ServeEngine>(sopts);
      };
      if (traced) build();
      else setups.run(build);

      double served_ms = 0;
      std::size_t bytes = 0;
      for (std::size_t i : seq) {
        auto& r = reqs[i];
        tracer.set_op(i);
        const auto options = option_set(r.option);
        const auto q0 = Clock::now();
        Result<serve::ServeResponse> resp = Error::internal("not served");
        {
          Span s("serve.request");
          resp = engine->handle(r.input, options);
          if (resp.ok())
            s.rename(resp->source == serve::Source::kCacheHit   ? "serve.hit"
                     : resp->source == serve::Source::kDeltaHit ? "serve.delta"
                                                                : "serve.cold");
        }
        const double ms = ms_since(q0);
        ++report.attempted;
        if (!resp.ok()) {
          report.fail(1, r.cb->spec.name + ": request failed: " + resp.error().message);
          continue;
        }
        served_ms += ms;
        bytes += resp->output.size();
        if (!traced) {
          lat.push_back(ms);
          ++r.ops;
          if (resp->source == serve::Source::kCold) {
            cold_ms += ms;
            cold_text += static_cast<double>(r.text_bytes);
          }
          extra_setup();
        }
        if (resp->output != r.reference)
          report.fail(1, r.cb->spec.name + ": response differs from a direct rewrite (" +
                             serve::source_name(resp->source) + ")");
        if (r.kind == Kind::kTextEdit && resp->source == serve::Source::kDeltaHit)
          report.fail(1, r.cb->spec.name + ": text edit served from the delta path");
        if (r.kind == Kind::kRepeat && resp->source != serve::Source::kCacheHit)
          report.fail(1, r.cb->spec.name + ": exact repeat was not a cache hit");
      }
      const auto st = engine->stats();
      {
        Span s("serve.close");
        engine.reset();
      }
      if (traced) {
        // The cold path's layers: the composed pipeline over every request
        // that is not an exact repeat, checked against the same references.
        for (std::size_t i = n_persisted; i < reqs.size(); ++i) {
          const auto& r = reqs[i];
          tracer.set_op(i);
          zelf::Image img;
          {
            Span s("zelf.read");
            img = std::move(*zelf::read_image(r.input));
          }
          const auto options = option_set(r.option);
          auto out = composed_rewrite(img, options, nullptr);
          Bytes bytes;
          if (out.ok()) {
            Span s("zelf.write");
            bytes = zelf::write_image(out->image);
          }
          ++report.attempted;
          if (!out.ok() || bytes != r.reference) {
            report.fail(1, r.cb->spec.name + ": composed pipeline bytes differ from zipr::rewrite");
            continue;
          }
          count_rewrite(counters, round, *out);
          analysis_parts(img, options);
        }
        traced_round_ms.push_back(served_ms);
        counters.set("serve.hits", round, static_cast<double>(st.cache_hits));
        counters.set("serve.delta_hits", round, static_cast<double>(st.delta_hits));
        counters.set("serve.delta_fallbacks", round, static_cast<double>(st.delta_fallbacks));
        counters.set("serve.delta_yield", round, st.delta_hits / static_cast<double>(data_edits));
        counters.set("serve.cold", round, static_cast<double>(st.cold));
        counters.set("serve.evictions", round, static_cast<double>(st.cache.evictions));
      } else {
        round_ms.push_back(served_ms);
        out_bytes = bytes;
      }
      Tracer::install(nullptr);
    }
    ++round;
  } while (Clock::now() < deadline);
  const double peak_mb = heap::peak() / 1048576.0;

  // Behaviour of the sampled responses (byte-identical to their
  // references, checked above): those whose input is an unedited binary,
  // each polled once per command handler. An edit can corrupt a code
  // pointer (the CBs' data segments are mostly dispatch tables) or execute
  // the flipped text byte, and CFI is meant to change behaviour on such a
  // hijack.
  PollTally polls;
  if (args.trace) Tracer::install(&tracer);
  tracer.set_round(0);
  for (auto& r : reqs) {
    if (r.kind != Kind::kRepeat && r.kind != Kind::kNew) continue;
    auto in = zelf::read_image(r.input);
    auto out = zelf::read_image(r.reference);
    if (!in.ok() || !out.ok() ||
        !poll_mismatches(*in, *out, handler_polls(*r.cb), polls).empty())
      report.fail(r.ops, r.cb->spec.name + ": served output does not behave like its input");
  }
  Tracer::install(nullptr);
  std::remove(cache_path.c_str());
  std::remove(setup_path.c_str());

  if (!args.trace) {
    report.add("setup_s", setups.median_s(), "s");
    report.add("rewrite_mb_per_s", cold_text / 1e6 / (cold_ms / 1e3), "MB/s");
    report.add("op_p50_ms", quantile(lat, 0.5), "ms");
    report.add("op_tail_ms", tail(lat), "ms");
    report.add("ops_per_s", lat.size() / (sum(lat) / 1e3), "op/s");
    report.add("peak_heap_mb", peak_mb, "MB");
    report.add("out_bytes", static_cast<double>(out_bytes), "B");
    report.add("poll_cycles", static_cast<double>(polls.cycles), "cycles");
    report.add("poll_pages", static_cast<double>(polls.pages), "pages");
  } else {
    counters.set("vm.insns", 0, static_cast<double>(polls.insns));
    counters.set("trace.overhead_pct", 0,
                 (median(traced_round_ms) / median(round_ms) - 1.0) * 100.0);
    finish_trace(args, tracer, counters, report);
  }
  return 0;
}

}  // namespace zbench
