// perfbench: the repo benchmark's measuring process. One process runs one
// workload in a closed loop — the next operation starts only after the
// previous one returned and was checked — and prints every metric by name
// with its unit. The last line of standard output is the JSON result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE [--out-dir DIR] [--commit ID]
//   perfbench --record-reference FILE
//
// run.py builds this binary and passes the paths; see README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
// Operations every phase runs at least, and the digest covers.
constexpr int kMinOps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string reference;
  std::string out_dir;
  std::string commit = "unknown";
  std::string record;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "summation_4096|plan_search|critpath_1024 --seed N --seconds S "
               "--trace 0|1 --reference FILE [--out-dir DIR] [--commit ID]\n"
               "       perfbench --record-reference FILE\n",
               error.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--record-reference") {
      args.record = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!args.record.empty()) return args;
  if (args.workload.empty() || args.seconds <= 0 || args.trace < 0 ||
      args.reference.empty()) {
    Usage("--workload, --seed, --seconds, --trace and --reference are required");
  }
  return args;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "summation_4096") return MakeSummation();
  if (name == "plan_search") return MakePlanSearch();
  if (name == "critpath_1024") return MakeCritPath();
  Usage("unknown workload " + name);
}

int Threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(nproc, 1, 4);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const Metrics::Entry& entry : metrics.entries()) {
    out += (first ? "" : ", ") + JsonString(entry.name) +
           ": {\"value\": " + Number(entry.value) +
           ", \"unit\": " + JsonString(entry.unit) + "}";
    first = false;
  }
  return out + "}";
}

int Record(const std::string& path) {
  Reference reference;
  std::fprintf(stderr, "recording summation_4096 references...\n");
  if (!RecordSummationReference(&reference)) return 1;
  std::fprintf(stderr, "recording critpath_1024 references...\n");
  if (!RecordCritPathReference(&reference)) return 1;
  std::fprintf(stderr, "recording plan_search references...\n");
  if (!RecordPlanSearchReference(&reference)) return 1;
  return reference.Save(path) ? 0 : 1;
}

int Run(const Args& args, Clock::time_point process_start) {
  Reference reference;
  std::string error;
  if (!reference.Load(args.reference, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  SpanLog spans(process_start);
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.threads = Threads();
  ctx.reference = &reference;

  long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto count = [&](bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  };

  // Set-up: build systems and seeded inputs, then one untimed warm-up
  // operation. Repeated kSetups times; the first sample starts at process
  // start, and the last set-up's state is the one measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetups; ++r) {
    workload.reset();
    const Clock::time_point start = r == 0 ? process_start : Clock::now();
    workload = Make(args.workload);
    workload->Setup(ctx);
    const OpResult warm = workload->WarmUp(ctx);
    setup_s.push_back(SecondsSince(start));
    count(warm.ok, "warm-up: " + warm.failure);
  }

  // The measured closed loop. A traced run first measures untraced
  // operations for a third of the time, then traced ones, so that it can
  // report its own overhead.
  const int round = workload->ops_per_round();
  const int min_ops = std::max(kMinOps, round);
  Digest digest;
  std::vector<double> op_ms, traced_op_ms;
  std::vector<int> op_class;
  double op_seconds = 0, sim_events = 0;
  int index = 0;
  const int phases = args.trace == 1 ? 2 : 1;
  for (int phase = 0; phase < phases; ++phase) {
    const bool traced = phase == 1;
    ctx.spans = traced ? &spans : nullptr;
    const double budget =
        args.trace == 1 ? args.seconds * (traced ? 2.0 : 1.0) / 3.0
                        : args.seconds;
    const Clock::time_point start = Clock::now();
    double round_start = 0;  // seconds into the phase when this round began
    for (int n = 1;; ++n, ++index) {
      Digest unused;
      const OpResult result =
          workload->Op(index, ctx, index < min_ops ? &digest : &unused);
      count(result.ok, "op " + std::to_string(index) + ": " + result.failure);
      if (traced) {
        traced_op_ms.push_back(result.op_ms);
      } else {
        op_ms.push_back(result.op_ms);
        op_class.push_back(result.op_class);
        op_seconds += result.op_ms * 1e-3;
        sim_events += result.sim_events;
      }
      // Stop at the round boundary nearest to the budget, taking the next
      // round to last as long as the one just ended.
      if (n % round == 0) {
        const double elapsed = SecondsSince(start);
        if (n >= min_ops && elapsed + 0.5 * (elapsed - round_start) >= budget) {
          ++index;
          break;
        }
        round_start = elapsed;
      }
    }
  }

  Metrics per_layer;
  std::string failure;
  count(workload->Finish(ctx, &per_layer, &failure), "run check: " + failure);

  Metrics end_to_end;
  end_to_end.Set("setup_s", Median(setup_s), "s");
  end_to_end.Set("ops_per_s", static_cast<double>(op_ms.size()) / op_seconds,
                 "1/s");
  end_to_end.Set("op_ms_p50", Median(op_ms), "ms");
  end_to_end.Set("sim_events_per_s", sim_events / op_seconds, "1/s");
  end_to_end.Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (args.trace == 1) {
    per_layer.Set("bench.trace_overhead_ms",
                  Median(traced_op_ms) - Median(op_ms), "ms");
  }

  // Human-readable report.
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("host");
  for (const auto& [key, value] : HostFingerprint()) {
    std::printf(" %s=%s", key.c_str(), JsonString(value).c_str());
  }
  std::printf(" threads_requested=%d seed=%llu commit=%s\n", ctx.threads,
              static_cast<unsigned long long>(args.seed), args.commit.c_str());
  std::printf("operations measured=%zu traced=%zu attempted=%ld failed=%ld\n",
              op_ms.size(), traced_op_ms.size(), attempted, failed);
  for (const Metrics::Entry& e : end_to_end.entries()) {
    std::printf("metric %-28s %.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  if (op_ms.size() >= 100) {
    std::printf("metric %-28s %.6g ms\n", "op_ms_p90", Quantile(op_ms, 0.9));
  } else {
    std::printf("metric %-28s n/a (needs >= 100 operations, run had %zu)\n",
                "op_ms_p90", op_ms.size());
  }
  std::printf("metric %-28s %.6g ratio\n", "op_fail_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (const Metrics::Entry& e : per_layer.entries()) {
    std::printf("layer  %-28s %.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::string not_called;
  for (const Metrics::Entry& e : per_layer.entries()) {
    if (e.not_called) not_called += " " + e.name;
  }
  if (!not_called.empty()) {
    std::printf("note   reported as 0, the workload never calls these "
                "layers:%s\n", not_called.c_str());
  }
  for (const std::string& note : workload->Notes()) {
    std::printf("note   %s\n", note.c_str());
  }
  std::printf("digest %s over the first %d operations\n",
              digest.Hex().c_str(), min_ops);
  for (const std::string& why : failures) {
    std::printf("FAILED %s\n", why.c_str());
  }

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "_seed" +
                             std::to_string(args.seed) + "_trace" +
                             std::to_string(args.trace);
    if (args.trace == 1 && !spans.WriteJson(stem + "_spans.json")) {
      std::fprintf(stderr, "perfbench: cannot write %s_spans.json\n",
                   stem.c_str());
    }
    std::ofstream out(stem + ".json");
    out << "{\"workload\": " << JsonString(args.workload)
        << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
        << ", \"commit\": " << JsonString(args.commit)
        << ", \"threads_requested\": " << ctx.threads << ", \"host\": {";
    bool first = true;
    for (const auto& [key, value] : HostFingerprint()) {
      out << (first ? "" : ", ") << JsonString(key) << ": "
          << JsonString(value);
      first = false;
    }
    out << "}, \"digest\": " << JsonString(digest.Hex())
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"setup_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      out << (i == 0 ? "" : ", ") << Number(setup_s[i]);
    }
    out << "], \"op_ms\": [";
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
      out << (i == 0 ? "" : ", ") << Number(op_ms[i]);
    }
    out << "], \"op_class\": [";
    for (std::size_t i = 0; i < op_class.size(); ++i) {
      out << (i == 0 ? "" : ", ") << op_class[i];
    }
    out << "]"
        << ", \"end_to_end\": " << MetricsJson(end_to_end)
        << ", \"per_layer\": " << MetricsJson(per_layer) << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              MetricsJson(args.trace == 1 ? per_layer : end_to_end).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Clock::time_point process_start = perfbench::Clock::now();
  const perfbench::Args args = perfbench::Parse(argc, argv);
  if (!args.record.empty()) return perfbench::Record(args.record);
  return perfbench::Run(args, process_start);
}
