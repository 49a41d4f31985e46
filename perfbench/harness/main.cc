// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <hot-read|tiered-read|ingest-migrate> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out spans.csv]
//             [--report report.json]
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics.
// --trace 1 runs the deterministic window twice, untraced and then through
// the TimingFs decorators, checks that both give identical simulated-clock,
// space and counter values, and prints the per-layer metrics.
//
// A human-readable report goes to stderr; the last line on stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every op succeeded, every byte read verified, Fsck() came
// back clean and (traced) the determinism check held.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness/span_trace.h"
#include "harness/workloads.h"

namespace {

using perfbench::OpClass;
using perfbench::Quantile;
using perfbench::RunConfig;
using perfbench::RunResult;

// Units name the clock: "sim_us" is simulated time, "us" host wall time.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock;  // "wall", "sim" or "-" (neither)
};

// The untraced run's metrics: every workload reports all of them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "wall"},          {"ops_s", "ops/s", "wall"},
    {"read_p50_us", "us", "wall"},     {"read_p99_us", "us", "wall"},
    {"op_p50_us", "us", "wall"},       {"op_p99_us", "us", "wall"},
    {"sim_us_per_op", "sim_us", "sim"},    {"space_amp", "ratio", "-"},
};

// The traced run's metrics, by layer. A layer a workload does not exercise
// reports 0 (e.g. the SCM cache on hot-read).
constexpr MetricDef kPerLayer[] = {
    {"vfs.self_us_per_op", "us", "wall"},
    {"mux.self_us_per_op", "us", "wall"},
    {"mux.sw_sim_ns_per_op", "sim_ns", "sim"},
    {"mux.fs_calls_per_op", "count", "-"},
    {"mux.split_segments_per_op", "count", "-"},
    {"mux.blt_bytes", "bytes", "-"},
    {"cache.hit_rate", "ratio", "-"},
    {"cache.admissions_per_kop", "1/kop", "-"},
    {"cache.evictions_per_kop", "1/kop", "-"},
    {"cache.agg_flush_kib", "KiB", "-"},
    {"async.fanouts_per_kop", "1/kop", "-"},
    {"async.dispatch_us_p50", "us", "wall"},
    {"async.resume_wait_us_p50", "us", "wall"},
    {"async.channel_wait_sim_us_mean", "sim_us", "sim"},
    {"migrate.round_ms_p50", "ms", "wall"},
    {"migrate.self_ms_per_round", "ms", "wall"},
    {"migrate.mib_per_round", "MiB", "-"},
    {"migrate.tasks_per_round", "count", "-"},
    {"migrate.task_failures", "count", "-"},
    {"migrate.occ_conflicts", "count", "-"},
    {"migrate.mib_s", "MiB/s", "wall"},
    {"migrate.sim_mib_s", "MiB/sim_s", "sim"},
    {"ckpt.ms_p50", "ms", "wall"},
    {"ckpt.snapshot_kib", "KiB", "-"},
    {"fs.novafs.calls_per_op", "count", "-"},
    {"fs.novafs.us_per_call", "us", "wall"},
    {"fs.novafs.kib_per_call", "KiB", "-"},
    {"fs.xfslite.calls_per_op", "count", "-"},
    {"fs.xfslite.us_per_call", "us", "wall"},
    {"fs.xfslite.kib_per_call", "KiB", "-"},
    {"fs.extlite.calls_per_op", "count", "-"},
    {"fs.extlite.us_per_call", "us", "wall"},
    {"fs.extlite.kib_per_call", "KiB", "-"},
    {"fs.xfslite.pcache_hit_rate", "ratio", "-"},
    {"fs.extlite.pcache_hit_rate", "ratio", "-"},
    {"fs.xfslite.journal_commits_per_kop", "1/kop", "-"},
    {"dev.pm.read_kib_per_op", "KiB/op", "-"},
    {"dev.pm.write_kib_per_op", "KiB/op", "-"},
    {"dev.pm.busy_sim_us_per_op", "sim_us", "sim"},
    {"dev.ssd.read_kib_per_op", "KiB/op", "-"},
    {"dev.ssd.write_kib_per_op", "KiB/op", "-"},
    {"dev.ssd.busy_sim_us_per_op", "sim_us", "sim"},
    {"dev.hdd.read_kib_per_op", "KiB/op", "-"},
    {"dev.hdd.write_kib_per_op", "KiB/op", "-"},
    {"dev.hdd.busy_sim_us_per_op", "sim_us", "sim"},
    {"dev.hdd.seeks_per_kop", "1/kop", "-"},
    {"dev.ssd.flushes_per_kop", "1/kop", "-"},
    {"dev.hdd.flushes_per_kop", "1/kop", "-"},
    {"dev.write_amp", "ratio", "-"},
    {"obs.add_ns", "ns", "wall"},
    {"trace.overhead_pct", "%", "wall"},
};

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string report_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--report") {
      args->report_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known |= name == args->workload;
  }
  return have_workload && known && args->seconds > 0 && args->seconds <= 600 &&
         (args->trace == 0 || args->trace == 1);
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

// The wall-clock end-to-end metrics, summarised so that the host's own
// speed drift (other tenants on a shared machine slow every op by up to 2x
// for seconds at a time) moves them as little as possible:
//  * each latency is the kQuietQuantile, over the phase's slices, of that
//    slice's percentile — the latency while the host is quiet;
//  * ops_s restates every slice's wall time at that quiet speed, with the
//    slice's own median op latency as the speedometer, and divides all ops
//    by the sum. Rounds and checkpoints stay in their slices' time.
// A change that slows every op moves every slice alike, so it shows in full.
constexpr double kQuietQuantile = 0.10;

std::map<std::string, double> SliceMetrics(
    const std::vector<perfbench::PhaseSlice>& slices) {
  std::vector<double> p50, p99, read_p50, read_p99;
  for (const auto& slice : slices) {
    p50.push_back(slice.all.Percentile(0.50));
    p99.push_back(slice.all.Percentile(0.99));
    if (slice.read.count() > 0) {
      read_p50.push_back(slice.read.Percentile(0.50));
      read_p99.push_back(slice.read.Percentile(0.99));
    }
  }
  const double quiet_p50 = Quantile(p50, kQuietQuantile);
  double ops = 0;
  double quiet_ns = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    ops += static_cast<double>(slices[i].ops);
    quiet_ns += static_cast<double>(slices[i].wall_ns) * quiet_p50 / p50[i];
  }
  return {
      {"ops_s", quiet_ns > 0 ? ops / (quiet_ns / 1e9) : 0.0},
      {"read_p50_us", Quantile(read_p50, kQuietQuantile) / 1e3},
      {"read_p99_us", Quantile(read_p99, kQuietQuantile) / 1e3},
      {"op_p50_us", quiet_p50 / 1e3},
      {"op_p99_us", Quantile(p99, kQuietQuantile) / 1e3},
  };
}

// FNV-1a over the exact values, so two runs can be compared at a glance.
uint64_t Fingerprint(const std::map<std::string, double>& exact) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, value] : exact) {
    const std::string item = name + "=" + Num(value) + ";";
    for (char c : item) {
      h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    }
  }
  return h;
}

void PrintExact(const RunResult& r) {
  std::fprintf(stderr,
               "exact for this seed (simulated clock, space and counters over "
               "the %llu-op window; they repeat bit-for-bit, traced or not), "
               "fingerprint %016llx:\n",
               static_cast<unsigned long long>(r.window_ops),
               static_cast<unsigned long long>(Fingerprint(r.exact)));
  for (const auto& [name, value] : r.exact) {
    std::fprintf(stderr, "  %-36s %.6g\n", name.c_str(), value);
  }
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const MetricDef* defs, size_t count,
                     const std::map<std::string, double>& values) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < count; ++i) {
    auto it = values.find(defs[i].name);
    out += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
           "\": {\"value\": " + Num(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void AddToReport(const std::string& scenario,
                 const std::map<std::string, double>& values,
                 mux::bench::JsonReport* report) {
  for (const auto& [name, value] : values) {
    report->Add(scenario, name, value);
  }
}

bool CheckRun(const RunResult& r, const char* label) {
  if (!r.status.ok()) {
    std::fprintf(stderr, "[perfbench] %s: %s\n", label,
                 r.status.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "[perfbench] %s: fsck %s (%s)\n", label,
               r.fsck_clean ? "clean" : "NOT CLEAN", r.fsck_detail.c_str());
  return r.fsck_clean && r.failed == 0;
}

int RunUntraced(const Args& args) {
  RunConfig config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.setup_reps = kSetupReps;
  const RunResult r = perfbench::RunWorkload(config);
  if (!r.status.ok() && r.attempted == 0) {
    std::fprintf(stderr, "[perfbench] set-up failed: %s\n",
                 r.status.ToString().c_str());
    return 1;
  }
  const bool correct = CheckRun(r, "untraced run");

  const auto& reads = r.latency[static_cast<int>(OpClass::kRead)];
  std::map<std::string, double> values = SliceMetrics(r.slices);
  values["setup_s"] = Quantile(r.setup_s, 0.5);
  values["sim_us_per_op"] = r.exact.at("sim_us_per_op");
  values["space_amp"] = r.exact.at("space_amp");
  const std::map<std::string, uint64_t> samples = {
      {"setup_s", r.setup_s.size()},     {"ops_s", r.attempted},
      {"read_p50_us", reads.count()},    {"read_p99_us", reads.count()},
      {"op_p50_us", r.all_ops.count()},  {"op_p99_us", r.all_ops.count()},
      {"sim_us_per_op", r.window_ops},   {"space_amp", 1},
  };

  std::fprintf(stderr,
               "perfbench %s seed=%llu: one client, closed loop, %.2f s "
               "measured in %zu slices of %llu ops\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<double>(r.wall_ns) / 1e9, r.slices.size(),
               static_cast<unsigned long long>(perfbench::PhaseSlice::kSliceOps));
  std::fprintf(stderr, "  %-22s %14s %-6s %-5s %s\n", "metric", "value",
               "unit", "clock", "samples");
  for (const MetricDef& def : kEndToEnd) {
    std::fprintf(stderr, "  %-22s %14.4f %-6s %-5s %llu\n", def.name,
                 values[def.name], def.unit, def.clock,
                 static_cast<unsigned long long>(samples.at(def.name)));
  }
  std::map<std::string, double> classes;
  std::fprintf(stderr,
               "op classes (wall clock, whole phase, not noise-filtered; "
               "%.0f ops/s):\n",
               static_cast<double>(r.attempted) /
                   (static_cast<double>(r.wall_ns) / 1e9));
  for (int c = 0; c < perfbench::kOpClassCount; ++c) {
    const auto& h = r.latency[c];
    if (h.count() == 0) {
      continue;
    }
    const std::string name = perfbench::OpClassName(static_cast<OpClass>(c));
    classes[name + "_p50_us"] = h.Percentile(0.50) / 1e3;
    classes[name + "_p99_us"] = h.Percentile(0.99) / 1e3;
    classes[name + "_count"] = static_cast<double>(h.count());
    std::fprintf(stderr, "  %-10s n=%-9llu p50=%9.3f us  p99=%9.3f us\n",
                 name.c_str(), static_cast<unsigned long long>(h.count()),
                 h.Percentile(0.50) / 1e3, h.Percentile(0.99) / 1e3);
  }
  const auto& rounds = r.phase_rounds;
  if (rounds.rounds > 0) {
    const double mib = static_cast<double>(rounds.blocks) * 4096.0 / 1048576.0;
    classes["migrate_mib_s"] =
        mib / (static_cast<double>(rounds.wall_ns) / 1e9);
    classes["sim_migrate_mib_s"] =
        mib / (static_cast<double>(rounds.sim_ns) / 1e9);
    std::fprintf(stderr,
                 "  migration: %llu rounds, %.1f MiB moved, %.1f MiB/s wall, "
                 "%.1f MiB/s sim; %llu checkpoints\n",
                 static_cast<unsigned long long>(rounds.rounds), mib,
                 classes["migrate_mib_s"], classes["sim_migrate_mib_s"],
                 static_cast<unsigned long long>(r.checkpoints));
  }
  classes["error_rate"] =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::fprintf(stderr, "  error_rate %.6g (%llu of %llu ops)\n",
               classes["error_rate"],
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.attempted));
  PrintExact(r);

  if (!args.report_out.empty()) {
    mux::bench::JsonReport report("perfbench." + args.workload);
    AddToReport("end_to_end", values, &report);
    AddToReport("op_classes", classes, &report);
    AddToReport("exact", r.exact, &report);
    report.WriteTo(args.report_out);
  }
  PrintResultLine(correct, r.attempted, r.failed, kEndToEnd,
                  std::size(kEndToEnd), values);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args) {
  RunConfig config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.window_only = true;
  const RunResult plain = perfbench::RunWorkload(config);
  perfbench::SpanTracer tracer;
  config.tracer = &tracer;
  const RunResult traced = perfbench::RunWorkload(config);
  if (!plain.status.ok() || !traced.status.ok()) {
    CheckRun(plain, "untraced window");
    CheckRun(traced, "traced window");
    return 1;
  }
  bool correct = CheckRun(plain, "untraced window");
  correct = CheckRun(traced, "traced window") && correct;

  // The decorators must not move simulated time, space or any counter.
  std::vector<std::string> diverged;
  for (const auto& [name, value] : plain.exact) {
    auto it = traced.exact.find(name);
    if (it == traced.exact.end() || it->second != value) {
      diverged.push_back(name);
    }
  }
  if (diverged.empty()) {
    std::fprintf(stderr,
                 "[perfbench] determinism: traced window matches the untraced "
                 "one on all %zu exact values\n",
                 plain.exact.size());
  } else {
    correct = false;
    for (const std::string& name : diverged) {
      std::fprintf(stderr,
                   "[perfbench] determinism FAILED: %s untraced=%.17g "
                   "traced=%.17g\n",
                   name.c_str(), plain.exact.at(name),
                   traced.exact.count(name) ? traced.exact.at(name) : 0.0);
    }
  }

  const std::vector<perfbench::Span> spans = tracer.Collect();
  std::map<std::string, double> values = traced.exact;
  for (const auto& [name, value] : traced.wall) {
    values[name] = value;
  }
  perfbench::AddSpanMetrics(spans, traced, &values);
  values["trace.overhead_pct"] =
      (static_cast<double>(traced.window_wall_ns) /
           static_cast<double>(plain.window_wall_ns) -
       1.0) *
      100.0;

  std::fprintf(stderr,
               "perfbench %s seed=%llu traced: %llu-op window, %zu spans\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(traced.window_ops),
               spans.size());
  for (const MetricDef& def : kPerLayer) {
    std::fprintf(stderr, "  %-36s %14.4f %-7s %s\n", def.name,
                 values[def.name], def.unit, def.clock);
  }
  PrintExact(traced);
  if (!args.trace_out.empty() &&
      !perfbench::WriteSpansCsv(spans, args.trace_out)) {
    std::fprintf(stderr, "[perfbench] could not write %s\n",
                 args.trace_out.c_str());
  }
  if (!args.report_out.empty()) {
    mux::bench::JsonReport report("perfbench." + args.workload + ".traced");
    AddToReport("per_layer", values, &report);
    report.WriteTo(args.report_out);
  }
  PrintResultLine(correct, plain.attempted + traced.attempted,
                  plain.failed + traced.failed, kPerLayer,
                  std::size(kPerLayer), values);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hot-read|tiered-read|"
                 "ingest-migrate> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out spans.csv] [--report report.json]\n");
    return 2;
  }
  return args.trace == 0 ? RunUntraced(args) : RunTraced(args);
}
