// kjbench — the repository benchmark driver. Run it through
// perfbench/run.py, which builds it and adds the span reducer:
//
//   kjbench --workload join_plus --seed 1 --seconds 10 --trace 0 --workdir DIR
//
// Prints one reading per line ("name value unit") and, last, the JSON
// result line {"correct", "attempted", "failed", "metrics"}.

#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "common.h"
#include "workload.h"

namespace perfbench {
namespace {

// setup_s is the median of at least kMinSetups full setups. A cheap setup
// repeats until kSetupBudgetSeconds have passed (at most kMaxSetups
// times), so a millisecond-scale setup is not a handful of noisy readings.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetSeconds = 1.0;

bool ParseArgs(int argc, char** argv, Options* options) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options->workload = value();
      } else if (arg == "--seed") {
        options->seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options->seconds = std::stod(value());
      } else if (arg == "--trace") {
        options->trace = std::stoi(value()) != 0;
      } else if (arg == "--workdir") {
        options->workdir = value();
      } else if (arg == "--tiny") {
        options->tiny = true;
      } else if (arg == "--perturb") {
        options->perturb = true;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return !options->workdir.empty() && options->seconds > 0.0;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "join_plus") return MakeJoinWorkload(options, /*plus=*/true);
  if (options.workload == "join_pure") return MakeJoinWorkload(options, /*plus=*/false);
  if (options.workload == "serve_topk") return MakeServeWorkload(options, /*mixed=*/false);
  if (options.workload == "serve_mixed") return MakeServeWorkload(options, /*mixed=*/true);
  return nullptr;
}

void Run(const Options& options, Workload* workload) {
  std::error_code error;
  std::filesystem::create_directories(options.workdir, error);
  if (error) Die("cannot create " + options.workdir + ": " + error.message());

  Report report;
  report.Text("workload", options.workload);
  report.Line("seed", static_cast<double>(options.seed), "count");
  ReportHost(&report);
  const Anchors start = MeasureAnchors();
  Anchors end;

  if (!options.trace) {
    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups && setup_total < kSetupBudgetSeconds)) {
      setups.push_back(workload->Setup());
      setup_total += setups.back();
    }
    ResetPeakRss();
    workload->Warmup();
    workload->Measure(options.seconds);
    const double rss_mb = PeakRssMb();
    end = MeasureAnchors();
    report.Line("setup_samples", static_cast<double>(setups.size()), "count");
    report.Metric("setup_s", Median(setups), "s");
    workload->ReportEndToEnd(&report);
    report.Metric("rss_peak_mb", rss_mb, "MB");
  } else {
    Tracer::SetEnabled(true);
    workload->Setup();
    workload->RunTraced(&report);
    Tracer::SetEnabled(false);
    end = MeasureAnchors();
  }
  const double drift = AnchorDrift(start, end);
  report.Line("anchor.lca_ms.start", start.lca_ms, "ms");
  report.Line("anchor.lca_ms.end", end.lca_ms, "ms");
  report.Line("anchor.stream_ms.start", start.stream_ms, "ms");
  report.Line("anchor.stream_ms.end", end.stream_ms, "ms");
  report.Line("anchor.drift", drift, "ratio");
  // 0 when the host changed speed under the window by more than the
  // benchmark's bound; the figures are still reported, since every run
  // must yield a result, and the reading marks them.
  report.Line("anchor.steady", drift <= kAnchorDriftBound ? 1.0 : 0.0, "bool");

  workload->Check(&report);
  if (options.trace &&
      !Tracer::Write(options.workdir + "/spans.tsv", options.workdir + "/trace_meta.json",
                     report.trace_meta())) {
    Die("cannot write the span dump to " + options.workdir);
  }
  report.Finish();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A peer closing a socket must surface as a failed call, not end the run.
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::Options options;
  std::unique_ptr<perfbench::Workload> workload;
  if (perfbench::ParseArgs(argc, argv, &options)) workload = perfbench::MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "usage: kjbench --workload <join_plus|join_pure|serve_topk|serve_mixed> "
                 "--seed N --seconds S --trace 0|1 --workdir DIR [--tiny] [--perturb]\n");
    return 2;
  }
  perfbench::Run(options, workload.get());
  return 0;
}
