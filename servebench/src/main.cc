// servebench: one run of one benchmark workload. Prints a human-readable summary on stderr
// and, as the last line of stdout, one JSON object with the correctness checks, the
// attempted/failed request counts, the outcome digest and every metric the run measured.
// servebench/run.py builds this binary, supplies the calibration recorded in
// servebench/workloads.json, and turns the object into the benchmark's result line.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//              [--low-rps <r> --high-rps <r> --ladder <r,r,...> --rung-requests <n>
//               --low-requests <n> --ttft-limit-ms <ms> --tpot-limit-ms <ms>]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "servebench/src/bench.h"

namespace servebench {
namespace {

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "servebench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else if (flag == "--ladder") {
      std::stringstream stream(value);
      std::string part;
      while (std::getline(stream, part, ',')) {
        if (!ParseDouble(part.c_str(), &number) || number <= 0.0) {
          std::fprintf(stderr, "servebench: bad ladder rate '%s'\n", part.c_str());
          return false;
        }
        options->ladder_rps.push_back(number);
      }
    } else if (!ParseDouble(value, &number)) {
      std::fprintf(stderr, "servebench: %s expects a number, got '%s'\n", flag.c_str(), value);
      return false;
    } else if (flag == "--seed") {
      options->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      options->seconds = number;
    } else if (flag == "--trace") {
      options->trace = number != 0.0;
    } else if (flag == "--low-rps") {
      options->low_rps = number;
    } else if (flag == "--high-rps") {
      options->high_rps = number;
    } else if (flag == "--rung-requests") {
      options->rung_requests = static_cast<int>(number);
    } else if (flag == "--low-requests") {
      options->low_requests = static_cast<int>(number);
    } else if (flag == "--ttft-limit-ms") {
      options->ttft_limit_ms = number;
    } else if (flag == "--tpot-limit-ms") {
      options->tpot_limit_ms = number;
    } else {
      std::fprintf(stderr, "servebench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

void PrintResult(const RunOptions& options, const RunResult& result) {
  bool correct = true;
  for (const auto& [name, ok] : result.checks) {
    std::fprintf(stderr, "  check %-52s %s\n", name.c_str(), ok ? "ok" : "FAILED");
    correct = correct && ok;
  }
  for (const auto& [name, value] : result.metrics.items()) {
    std::fprintf(stderr, "  %-34s %.6g\n", name.c_str(), value);
  }
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"passes\":%d,\"correct\":%s,"
              "\"attempted\":%lld,\"failed\":%lld,\"digest\":%s,\"checks\":{",
              JsonString(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              result.passes, correct ? "true" : "false",
              static_cast<long long>(result.attempted), static_cast<long long>(result.failed),
              JsonString(result.digest).c_str());
  const char* sep = "";
  for (const auto& [name, ok] : result.checks) {
    std::printf("%s%s:%s", sep, JsonString(name).c_str(), ok ? "true" : "false");
    sep = ",";
  }
  std::printf("},\"metrics\":{");
  sep = "";
  for (const auto& [name, value] : result.metrics.items()) {
    std::printf("%s%s:%.17g", sep, JsonString(name).c_str(), value);
    sep = ",";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::RunOptions options;
  if (!servebench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr, "usage: servebench --workload <name> --seed <n> --seconds <s> "
                         "--trace <0|1> [--spans <path>] [fleet calibration flags]\n");
    return 2;
  }
  servebench::RunResult result;
  if (options.workload == "arxiv-prefix") {
    result = servebench::RunArxivPrefix(options);
  } else if (options.workload == "mmmu-vision") {
    result = servebench::RunMmmuVision(options);
  } else if (options.workload == "spec-swap") {
    result = servebench::RunSpecSwap(options);
  } else if (options.workload == "fleet-online") {
    result = servebench::RunFleetOnline(options);
  } else {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  servebench::PrintResult(options, result);
  return 0;
}
