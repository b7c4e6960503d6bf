#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "heap.h"

namespace zbench {

Tracer* Tracer::active_ = nullptr;

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) { spans_.reserve(1 << 16); }

int Tracer::open(const char* name) {
  SpanRec s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back().index;
  s.op = op_;
  s.round = round_;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(s);
  // Peak tracking restarts at this span's start; close() restores the
  // enclosing span's peak so nested measurements compose.
  stack_.push_back({index, heap::allocs(), heap::live(), heap::reset_peak()});
  spans_.back().start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - t0_)
                               .count();
  return index;
}

void Tracer::close(int index) {
  const auto now = std::chrono::steady_clock::now();
  Open o = stack_.back();
  stack_.pop_back();
  SpanRec& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0_).count();
  s.allocs = heap::allocs() - o.allocs0;
  const std::int64_t span_peak = heap::peak();
  s.peak_bytes = std::max<std::int64_t>(0, span_peak - o.live0);
  heap::raise_peak(o.saved_peak);
}

std::map<std::string, std::vector<LayerRound>> Tracer::by_layer() const {
  // Children of one span never overlap each other (one thread opens
  // spans), so the part of a span its children cover is their summed
  // duration.
  std::vector<double> child_ms(spans_.size(), 0.0);
  std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent < 0) continue;
    child_ms[static_cast<std::size_t>(s.parent)] += (s.end_ns - s.start_ns) / 1e6;
    child_allocs[static_cast<std::size_t>(s.parent)] += s.allocs;
  }
  std::map<std::string, std::map<std::uint64_t, LayerRound>> acc;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    LayerRound& r = acc[s.name][s.round];
    const double dur = (s.end_ns - s.start_ns) / 1e6;
    r.total_ms += dur;
    r.self_ms += dur - child_ms[i];
    r.self_allocs += s.allocs - child_allocs[i];
    r.peak_bytes = std::max(r.peak_bytes, s.peak_bytes);
    ++r.count;
  }
  std::map<std::string, std::vector<LayerRound>> out;
  for (auto& [name, rounds] : acc)
    for (auto& [round, r] : rounds) out[name].push_back(r);
  return out;
}

namespace {
template <class T, class F>
double median_of(const std::vector<T>& v, F f) {
  std::vector<double> xs;
  for (const auto& x : v) xs.push_back(f(x));
  std::sort(xs.begin(), xs.end());
  if (xs.empty()) return 0;
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}
}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"zbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                 "\"op\": %llu, \"round\": %llu, \"allocs\": %llu, \"peak_bytes\": %lld}}%s\n",
                 s.name, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.op), static_cast<unsigned long long>(s.round),
                 static_cast<unsigned long long>(s.allocs), static_cast<long long>(s.peak_bytes),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool Tracer::write_layer_table(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%-28s %6s %9s %12s %12s %12s %12s\n", "layer", "rounds", "calls/rd",
               "self_ms/rd", "total_ms/rd", "allocs/rd", "peak_MB");
  for (const auto& [name, rounds] : by_layer()) {
    std::fprintf(f, "%-28s %6zu %9.1f %12.3f %12.3f %12.0f %12.3f\n", name.c_str(),
                 rounds.size(), median_of(rounds, [](const LayerRound& r) { return double(r.count); }),
                 median_of(rounds, [](const LayerRound& r) { return r.self_ms; }),
                 median_of(rounds, [](const LayerRound& r) { return r.total_ms; }),
                 median_of(rounds, [](const LayerRound& r) { return double(r.self_allocs); }),
                 median_of(rounds, [](const LayerRound& r) { return r.peak_bytes / 1048576.0; }));
  }
  return std::fclose(f) == 0;
}

}  // namespace zbench
