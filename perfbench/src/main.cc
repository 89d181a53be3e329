// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload <serve_zipf|template_rw> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints progress lines starting with '#' and, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics. See NOTES.md for what each workload and metric
// measures.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(),
                   value.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  return perfbench::RunBenchmark(args);
}
