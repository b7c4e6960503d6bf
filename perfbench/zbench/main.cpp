// zbench: the rewriter's end-to-end benchmark binary.
//
//   zbench --workload <corpus-cfi|bigbin|serve-mix|fuzz-farm> --seed <n>
//          --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Progress and check failures go to stderr; the last line of stdout is
// the result: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics of the
// traced run (and writes its Chrome trace and layer table to --out-dir).
// Exits 1 if any correctness check failed, 2 on bad usage.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "support/log.h"

int main(int argc, char** argv) {
  zbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") args.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") args.trace = std::strcmp(v, "0") != 0;
    else if (k == "--out-dir") args.out_dir = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  using Fn = int (*)(const zbench::Args&, zbench::Report&);
  Fn fn = args.workload == "corpus-cfi"  ? zbench::run_corpus_cfi
          : args.workload == "bigbin"    ? zbench::run_bigbin
          : args.workload == "serve-mix" ? zbench::run_serve_mix
          : args.workload == "fuzz-farm" ? zbench::run_fuzz_farm
                                         : nullptr;
  if (fn == nullptr || !(args.seconds > 0)) {
    std::fprintf(stderr, "usage: zbench --workload <corpus-cfi|bigbin|serve-mix|fuzz-farm> "
                         "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  std::fprintf(stderr, "zbench %s seed=%llu seconds=%g trace=%d build=%s compiler=%s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, ZBENCH_BUILD_TYPE, ZBENCH_COMPILER);
  // Keep freed memory mapped: glibc otherwise trims the heap top and
  // unmaps large blocks after every rewrite, and re-faulting those pages
  // costs a VM guest anywhere from nothing to a third of a pass depending
  // on the host's load. Fault costs then show in setup_s, not in the
  // steady-state figures.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  // The rewriter's warnings (e.g. dropped pin candidates) repeat on every
  // pass over the same inputs; printing them would time stderr, not the
  // rewriter.
  zipr::set_log_level(zipr::LogLevel::kError);
  zbench::Report report;
  if (int rc = fn(args, report); rc != 0) return rc;
  if (report.attempted == 0) report.fail(0, "no operation attempted");
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
