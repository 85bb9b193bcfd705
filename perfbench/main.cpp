// perfbench: the sanmap benchmark binary.
//
//   perfbench --workload now100-churn|ktree-epoch|banded-map --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1 (after the self-time table). Exits 1 when
// any output check failed and 2 on a usage error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload now100-churn|ktree-epoch|"
               "banded-map --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(options.seconds > 0)) {
    usage("--seconds must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::Result result;
  try {
    if (options.workload == "now100-churn") {
      result = perfbench::run_now100_churn(options);
    } else if (options.workload == "ktree-epoch") {
      result = perfbench::run_ktree_epoch(options);
    } else if (options.workload == "banded-map") {
      result = perfbench::run_banded_map(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  std::cout << perfbench::to_json(result) << std::endl;
  return result.correct ? 0 : 1;
}
