// Host wall-clock spans recorded from outside the Mux stack.
//
// The benchmark's traced run times calls into each layer's public functions:
// the client's Vfs call, the TimingFs decorators around Mux and around each
// tier file system, and the policy rounds / checkpoints / setup migrations
// the client drives. Each span records its layer, call name, start, end,
// parent span and the client op (or round) it belongs to.
//
// Spans go to per-thread buffers (no lock on the hot path) and are merged
// only when the run ends. Parenting: a span opened while the same thread
// already has one open nests under it; a span opened on a thread with no
// open span (a ring server, a migration drain thread) belongs to whatever
// the single client thread has open at that moment — with one client in a
// closed loop that is exactly the op or round in flight.
#ifndef PERFBENCH_HARNESS_SPAN_TRACE_H_
#define PERFBENCH_HARNESS_SPAN_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kVfs,           // the client's Vfs call
  kMux,           // the decorator mounted around Mux
  kNovafs,        // decorators passed to AddTier
  kXfslite,
  kExtlite,
  kRound,         // RunPolicyMigrations
  kCheckpoint,    // Checkpoint
  kSetupMigrate,  // MigrateFile / MigrateRange during setup
};

const char* LayerName(Layer layer);

// Steady-clock nanoseconds.
uint64_t WallNowNs();

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t bytes = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = no parent
  uint32_t op = 0;      // client op / round id in flight (0 = none)
  uint16_t thread = 0;  // index of the recording thread's buffer
  Layer layer = Layer::kVfs;
  const char* name = "";  // static call name ("read", "write", ...)

  uint64_t duration() const { return end_ns - start_ns; }
};

class SpanTracer {
 public:
  // The constructing thread is the client thread.
  SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Opens a span on the calling thread and returns its id. `name` must be a
  // string literal (it is stored by pointer).
  uint32_t Begin(Layer layer, const char* name);
  // Closes the calling thread's innermost open span (spans close LIFO).
  void End(uint64_t bytes);

  // Client thread: the op or round every span opened from now on belongs to.
  void SetOp(uint32_t op) { op_.store(op, std::memory_order_relaxed); }

  // Every closed span, merged across threads and sorted by id. Call only
  // once every recording thread is quiescent (joined, or idle behind a
  // synchronizing handoff such as an op completion).
  std::vector<Span> Collect() const;

 private:
  struct ThreadBuffer {
    uint16_t index = 0;
    bool is_client = false;
    std::vector<Span> open;
    std::vector<Span> done;
  };
  ThreadBuffer* Local();

  const uint64_t epoch_;
  const std::thread::id client_;
  std::atomic<uint32_t> next_id_{1};
  std::atomic<uint32_t> op_{0};
  // Innermost span the client thread has open (0 = none).
  std::atomic<uint32_t> client_top_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, Layer layer, const char* name)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer, name);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(bytes_);
    }
  }
  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  SpanTracer* const tracer_;
  uint64_t bytes_ = 0;
};

// Length of the union of [start, end) intervals, clipped to [lo, hi).
uint64_t UnionLength(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                     uint64_t lo, uint64_t hi);

// Self time of every span: its duration minus the part of its interval that
// the union of its children covers. Children may overlap each other (split
// chains run on several ring servers at once), so they are unioned, never
// summed. Keyed by span id.
std::map<uint32_t, uint64_t> SelfTimes(const std::vector<Span>& spans);

// Writes the spans as CSV (header line, then one span per line).
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPAN_TRACE_H_
