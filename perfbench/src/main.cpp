// qp_perfbench: runs one benchmark workload and prints its metrics.
//
//   qp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-dir <dir>]
//
// Prints one JSON line of run details ({"details": ...}: provenance of the
// build, sample counts, probe and self-test outcomes, failure messages) and
// then, as the last line, {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics with obs off; --trace 1 reports
// the per-layer metrics and writes a Chrome trace into --trace-dir.
// Exit status: 0 when a result was printed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int usage(const std::string& message) {
  std::cerr << "qp_perfbench: " << message << "\n"
            << "usage: qp_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value, &used);
        if (!(options.seconds > 0.0) || !std::isfinite(options.seconds)) {
          return usage("--seconds must be positive");
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) return usage("bad number for " + flag);
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Report report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::invalid_argument& error) {
    return usage(error.what());
  } catch (const std::exception& error) {
    report.fail(std::string{"run aborted: "} + error.what());
  }

  std::ostringstream details;
  details << "{\"details\": {\"workload\": " << json_string(options.workload)
          << ", \"seed\": " << options.seed
          << ", \"compiler\": " << json_string(QP_PERFBENCH_COMPILER)
          << ", \"build_type\": " << json_string(QP_PERFBENCH_BUILD_TYPE)
          << ", \"qp_obs_compiled\": " << (qp::obs::kCompiled ? "true" : "false");
  for (const auto& [key, value] : report.notes) {
    details << ", " << json_string(key) << ": " << json_string(value);
  }
  details << ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    details << (i == 0 ? "" : ", ") << json_string(report.failures[i]);
  }
  details << "]}}";
  std::cout << details.str() << '\n';

  bool finite = true;
  std::ostringstream metrics;
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& metric = report.metrics[i];
    finite = finite && std::isfinite(metric.value);
    metrics << (i == 0 ? "" : ", ") << json_string(metric.name) << ": {\"value\": "
            << json_number(std::isfinite(metric.value) ? metric.value : 0.0)
            << ", \"unit\": " << json_string(metric.unit) << '}';
  }
  std::cout << "{\"correct\": " << (report.correct() && finite ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(1, report.attempted)
            << ", \"failed\": " << report.failed << ", \"metrics\": {" << metrics.str()
            << "}}" << std::endl;
  return 0;
}
