// Repository benchmark driver binary. Usage:
//   perfbench --workload <offline-detect|serve-cold> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
// Prints progress lines, then one JSON result line (see run.py).
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]"
              << std::endl;
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.workdir << ": " << ec.message()
              << std::endl;
    return 2;
  }
  perfbench::Report report;
  if (args.workload == "offline-detect") {
    perfbench::RunOfflineDetect(args, &report);
  } else if (args.workload == "serve-cold") {
    perfbench::RunServe(args, &report);
  } else {
    std::cerr << "unknown workload: " << args.workload << std::endl;
    return 2;
  }
  if (!args.trace) {
    report.Set("ok_frac",
               report.attempted() > 0
                   ? 1.0 - static_cast<double>(report.failed()) /
                               static_cast<double>(report.attempted())
                   : 0.0);
  }
  std::cout << report.Json() << std::endl;
  return 0;
}
