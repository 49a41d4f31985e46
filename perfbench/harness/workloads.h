// The benchmark's workloads: hot-read, tiered-read and ingest-migrate (see
// perfbench/README.md for what each exercises and why it is sized as it is).
//
// Every workload drives the Vfs from ONE client thread in a closed loop,
// with ops drawn from a generator seeded by the run's seed, and checks every
// byte it reads against a per-block pattern of (seed, file, block, write
// generation). A run is: build + populate + place + warm up (timed together
// as set-up), then the measured phase. The phase always starts with a
// fixed-length window of ops over which the simulated-clock metrics, space
// and layer counters are taken — those repeat exactly for one seed — and
// then continues on the wall clock until the requested seconds are up.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/status.h"
#include "harness/span_trace.h"

namespace perfbench {

using mux::bench::FineHistogram;

enum class OpClass : uint8_t { kRead, kSplitRead, kWrite, kFsync, kCreate };
inline constexpr int kOpClassCount = 5;
const char* OpClassName(OpClass cls);

const std::vector<std::string>& WorkloadNames();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Wall-clock length of the measured phase; it never ends before the
  // deterministic window has run.
  double seconds = 10;
  // Stop right after the window (the traced run and its untraced twin).
  bool window_only = false;
  // Stacks built (and timed) for set-up; the last one is measured.
  int setup_reps = 1;
  SpanTracer* tracer = nullptr;  // null = untraced stack
};

// Migration rounds run by the client (ingest-migrate).
struct RoundTotals {
  uint64_t rounds = 0;
  uint64_t wall_ns = 0;  // inside RunPolicyMigrations
  uint64_t sim_ns = 0;
  uint64_t blocks = 0;   // MuxStats::migrated_blocks delta
  uint64_t tasks = 0;    // scheduler tasks submitted
};

// kSliceOps consecutive client ops of the measured phase, with the wall
// time they took, rounds and checkpoints run between them included.
struct PhaseSlice {
  static constexpr uint64_t kSliceOps = 4096;
  uint64_t ops = 0;
  uint64_t wall_ns = 0;
  FineHistogram read;  // OpClass::kRead
  FineHistogram all;
};

struct RunResult {
  mux::Status status;  // set-up or harness failure (not a client-op failure)
  std::vector<double> setup_s;  // one sample per set-up
  uint64_t attempted = 0;  // client ops in the measured phase
  uint64_t failed = 0;     // errored, short, or failed verification
  uint64_t wall_ns = 0;    // measured phase
  std::array<FineHistogram, kOpClassCount> latency;  // wall ns per class
  FineHistogram all_ops;  // wall ns, every class
  std::vector<PhaseSlice> slices;  // complete slices of the phase, in order
  RoundTotals phase_rounds;
  uint64_t checkpoints = 0;
  // The deterministic window: ops [first_op, last_op] by client op id.
  uint64_t window_ops = 0;
  uint64_t window_wall_ns = 0;
  uint32_t window_first_id = 0;
  uint32_t window_last_id = 0;
  // Window values that repeat exactly for one seed: simulated time, space,
  // and the counters every layer exports.
  std::map<std::string, double> exact;
  // Window values read from the live stack on the host clock.
  std::map<std::string, double> wall;
  bool fsck_clean = false;
  std::string fsck_detail;
};

// Builds the stack(s), populates, warms up, measures, runs Fsck, and tears
// the stack down before returning — so a tracer's spans are quiescent.
RunResult RunWorkload(const RunConfig& config);

// Per-layer metrics derived from the traced run's spans over the window.
void AddSpanMetrics(const std::vector<Span>& spans, const RunResult& run,
                    std::map<std::string, double>* out);

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

// Pattern of one 4 KiB block: 512 64-bit words base + i * step, where base
// hashes (seed, file, block, generation). A misplaced, stale, shifted or
// torn block fails the check.
uint64_t BlockPatternBase(uint64_t seed, uint64_t file, uint64_t block,
                          uint64_t generation);
void FillBlock(uint8_t* out, uint64_t base);
bool CheckBlock(const uint8_t* data, uint64_t base);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
