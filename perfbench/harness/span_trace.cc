#include "harness/span_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_epoch{1};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kVfs: return "vfs";
    case Layer::kMux: return "mux";
    case Layer::kNovafs: return "novafs";
    case Layer::kXfslite: return "xfslite";
    case Layer::kExtlite: return "extlite";
    case Layer::kRound: return "round";
    case Layer::kCheckpoint: return "checkpoint";
    case Layer::kSetupMigrate: return "setup_migrate";
  }
  return "?";
}

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanTracer::SpanTracer()
    : epoch_(g_next_epoch.fetch_add(1, std::memory_order_relaxed)),
      client_(std::this_thread::get_id()) {}

SpanTracer::ThreadBuffer* SpanTracer::Local() {
  // One cached buffer per thread; a thread that meets a newer tracer
  // registers a fresh buffer there (epochs are never reused).
  thread_local uint64_t cached_epoch = 0;
  thread_local ThreadBuffer* cached = nullptr;
  if (cached_epoch != epoch_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->is_client = std::this_thread::get_id() == client_;
    buffer->done.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(mu_);
    buffer->index = static_cast<uint16_t>(buffers_.size());
    cached = buffer.get();
    buffers_.push_back(std::move(buffer));
    cached_epoch = epoch_;
  }
  return cached;
}

uint32_t SpanTracer::Begin(Layer layer, const char* name) {
  ThreadBuffer* buffer = Local();
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer->open.empty()
                    ? (buffer->is_client
                           ? 0
                           : client_top_.load(std::memory_order_relaxed))
                    : buffer->open.back().id;
  span.op = op_.load(std::memory_order_relaxed);
  span.thread = buffer->index;
  span.layer = layer;
  span.name = name;
  if (buffer->is_client) {
    client_top_.store(span.id, std::memory_order_relaxed);
  }
  span.start_ns = WallNowNs();
  buffer->open.push_back(span);
  return span.id;
}

void SpanTracer::End(uint64_t bytes) {
  const uint64_t now = WallNowNs();
  ThreadBuffer* buffer = Local();
  if (buffer->open.empty()) {
    return;
  }
  Span span = buffer->open.back();
  buffer->open.pop_back();
  span.end_ns = now;
  span.bytes = bytes;
  buffer->done.push_back(span);
  if (buffer->is_client) {
    client_top_.store(buffer->open.empty() ? 0 : buffer->open.back().id,
                      std::memory_order_relaxed);
  }
}

std::vector<Span> SpanTracer::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->done.size();
  }
  all.reserve(total);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->done.begin(), buffer->done.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

uint64_t UnionLength(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                     uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;  // everything below cursor is already counted
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (start < end) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

std::map<uint32_t, uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<uint32_t, uint64_t> self;
  for (const Span& span : spans) {
    uint64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      covered = UnionLength(std::move(it->second), span.start_ns, span.end_ns);
    }
    self[span.id] = span.duration() - std::min(covered, span.duration());
  }
  return self;
}

bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id,parent,op,thread,layer,call,start_ns,end_ns,bytes\n");
  // Times are written relative to the earliest span.
  uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    origin = std::min(origin, span.start_ns);
  }
  for (const Span& span : spans) {
    std::fprintf(f, "%u,%u,%u,%u,%s,%s,%llu,%llu,%llu\n", span.id, span.parent,
                 span.op, static_cast<unsigned>(span.thread),
                 LayerName(span.layer), span.name,
                 static_cast<unsigned long long>(span.start_ns - origin),
                 static_cast<unsigned long long>(span.end_ns - origin),
                 static_cast<unsigned long long>(span.bytes));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
