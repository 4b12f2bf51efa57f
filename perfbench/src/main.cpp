// echbench: one named workload in one process, timed from outside the
// program.  Prints diagnostics on stderr and, as the last stdout line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   echbench --workload read-wide --seed 1 --seconds 10 --trace 0
//   echbench --workload churn-net --seed 1 --seconds 10 --trace 1
//            --trace-out spans.csv
//   echbench --self-test
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checks.h"
#include "common.h"
#include "workload.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: echbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       echbench --self-test\n");
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::RunConfig config;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t n = 0;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], &n)) {
      config.seed = n;
      ++i;
    } else if (arg == "--seconds" && has_value && parse_u64(argv[i + 1], &n) &&
               n >= 1 && n <= 60) {
      config.seconds = static_cast<double>(n);
      ++i;
    } else if (arg == "--trace" && has_value && parse_u64(argv[i + 1], &n) &&
               n <= 1) {
      config.trace = n == 1;
      ++i;
    } else if (arg == "--trace-out" && has_value) {
      config.trace_path = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (self_test) return perfbench::run_self_test();
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == config.workload;
  }
  if (!known) {
    usage();
    return 2;
  }

  const perfbench::RunResult r =
      perfbench::run_workload(config, process_start);
  if (r.attempted == 0) {
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "echbench: %s\n", v.c_str());
    }
    std::fprintf(stderr, "echbench: no operation was attempted\n");
    return 1;
  }
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "echbench: check failed: %s\n", v.c_str());
  }
  const bool correct = r.violations.empty();
  std::printf("%s\n", perfbench::result_json(correct, r.attempted, r.failed,
                                             r.metrics)
                          .c_str());
  return correct ? 0 : 1;
}
