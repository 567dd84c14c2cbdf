// perfbench -- the repo benchmark's measuring program. run.py builds it and
// the `ninec` CLI from the checkout and invokes it as
//
//   perfbench --workload offline-ckt2|serve-hot|serve-cold --seed N
//             --seconds S --trace 0|1 --ninec PATH --work DIR [--smoke]
//
// It prints one `metric <name> <value> <unit>` line per figure and, last,
// one JSON object: end-to-end metrics when --trace 0, per-layer ones when
// --trace 1. Exit status 0 only when every output matched its reference.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload offline-ckt2|serve-hot|serve-cold"
               " --seed N --seconds S --trace 0|1 --ninec PATH --work DIR"
               " [--smoke]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--ninec") o.ninec = value;
      else if (flag == "--work") o.work = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.work.empty() || !std::filesystem::is_directory(o.work))
    usage("--work must name an existing directory");
  if (!(o.seconds > 0)) usage("--seconds must be positive");

  std::cout << "workload " << o.workload << " seed " << o.seed
            << " (default seed " << perfbench::kDefaultSeed << ", held-out seed "
            << perfbench::kHeldOutSeed << ") seconds " << o.seconds
            << " trace " << o.trace << (o.smoke ? " smoke" : "") << '\n';
  perfbench::Report report(o.trace);
  try {
    if (o.workload == "offline-ckt2") {
      if (o.ninec.empty()) usage("offline-ckt2 needs --ninec");
      perfbench::run_offline(o, report);
    } else if (o.workload == "serve-hot" || o.workload == "serve-cold") {
      perfbench::run_serve(o, o.workload == "serve-cold", report);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return report.finish();
}
