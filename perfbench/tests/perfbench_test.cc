// Tests for the benchmark's own helpers: span self time, the TimingFs
// decorator, and the block pattern the workloads verify reads against.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/span_trace.h"
#include "harness/timing_fs.h"
#include "harness/workloads.h"
#include "src/common/clock.h"
#include "src/device/device_profile.h"
#include "src/device/pm_device.h"
#include "src/fs/novafs/novafs.h"

namespace perfbench {
namespace {

Span MakeSpan(uint32_t id, uint32_t parent, uint16_t thread, uint64_t start,
              uint64_t end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.thread = thread;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SpanSelfTime, OverlappingChildrenOnTwoThreadsAreUnioned) {
  // Parent [0, 100) on the client; two ring-server children overlap in
  // [30, 50) and a third runs past the parent's end.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 0, 100),
      MakeSpan(2, 1, 1, 10, 50),
      MakeSpan(3, 1, 2, 30, 70),
      MakeSpan(4, 1, 1, 90, 120),
  };
  const auto self = SelfTimes(spans);
  // Covered: [10, 70) + [90, 100) = 70, so self = 30 (a sum would give -10).
  EXPECT_EQ(self.at(1), 30u);
  EXPECT_EQ(self.at(2), 40u);
  EXPECT_EQ(self.at(3), 40u);
}

TEST(SpanSelfTime, UnionLengthClipsAndMerges) {
  EXPECT_EQ(UnionLength({}, 0, 10), 0u);
  EXPECT_EQ(UnionLength({{5, 8}, {0, 3}, {2, 6}}, 0, 10), 8u);
  EXPECT_EQ(UnionLength({{0, 20}}, 5, 10), 5u);
  EXPECT_EQ(UnionLength({{12, 20}}, 5, 10), 0u);
}

TEST(SpanTracer, SpansFromOtherThreadsBelongToTheClientsOpenSpan) {
  SpanTracer tracer;
  tracer.SetOp(7);
  const uint32_t parent = tracer.Begin(Layer::kMux, "read");
  std::thread a([&] {
    ScopedSpan span(&tracer, Layer::kXfslite, "read");
    span.set_bytes(4096);
  });
  std::thread b([&] {
    ScopedSpan span(&tracer, Layer::kExtlite, "read");
    ScopedSpan nested(&tracer, Layer::kExtlite, "statfs");
  });
  a.join();
  b.join();
  tracer.End(0);

  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 4u);
  std::vector<uint16_t> threads;
  for (const Span& span : spans) {
    EXPECT_EQ(span.op, 7u);
    threads.push_back(span.thread);
    if (span.id == parent) {
      EXPECT_EQ(span.parent, 0u);
    } else if (std::string(span.name) == "statfs") {
      // Nested on its own thread: parented by that thread's open span.
      EXPECT_NE(span.parent, parent);
      EXPECT_NE(span.parent, 0u);
    } else {
      EXPECT_EQ(span.parent, parent);
    }
  }
  std::sort(threads.begin(), threads.end());
  EXPECT_EQ(std::unique(threads.begin(), threads.end()) - threads.begin(), 3);
}

// Two identical PM stacks, one reached through the decorator.
struct PmStack {
  PmStack()
      : pm(mux::device::DeviceProfile::OptanePm(16ull << 20), &clock),
        fs(&pm, &clock) {}
  mux::SimClock clock;
  mux::device::PmDevice pm;
  mux::fs::NovaFs fs;
};

TEST(TimingFs, ForwardsDaxCallsAndChargesNoSimulatedTime) {
  PmStack direct;
  PmStack wrapped;
  ASSERT_TRUE(direct.fs.Format().ok());
  ASSERT_TRUE(wrapped.fs.Format().ok());
  SpanTracer tracer;
  TimingFs timing(&wrapped.fs, &tracer, Layer::kNovafs);
  ASSERT_EQ(direct.clock.Now(), wrapped.clock.Now());

  EXPECT_TRUE(timing.SupportsDax());
  EXPECT_EQ(timing.Name(), wrapped.fs.Name());

  std::vector<uint8_t> data(8192, 0x5a);
  auto run = [&](mux::vfs::FileSystem& fs, mux::fs::NovaFs& inner,
                 mux::vfs::DaxMapping* mapping) {
    auto handle = fs.Open("/f", mux::vfs::OpenFlags::kCreateRw, 0644);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(fs.Write(*handle, 0, data.data(), data.size()).ok());
    auto mapped = fs.DaxMap(*handle, 0, data.size());
    ASSERT_TRUE(mapped.ok());
    *mapping = *mapped;
    EXPECT_EQ(inner.ActiveDaxMappings(), 1u);
    EXPECT_EQ(mapping->data[0], 0x5a);
    fs.ChargeDax(4096, /*is_write=*/false);
    fs.ChargeDax(4096, /*is_write=*/true);
    ASSERT_TRUE(fs.DaxUnmap(*mapping).ok());
    EXPECT_EQ(inner.ActiveDaxMappings(), 0u);
    ASSERT_TRUE(fs.Close(*handle).ok());
  };
  mux::vfs::DaxMapping direct_map;
  mux::vfs::DaxMapping wrapped_map;
  run(direct.fs, direct.fs, &direct_map);
  run(timing, wrapped.fs, &wrapped_map);

  EXPECT_EQ(wrapped_map.length, direct_map.length);
  // Identical simulated time, ChargeDax included: the decorator adds none.
  EXPECT_EQ(wrapped.clock.Now(), direct.clock.Now());
  EXPECT_EQ(wrapped.pm.stats().busy_ns, direct.pm.stats().busy_ns);

  // Spans for open/write/close only; the DAX calls are not file-system calls.
  std::vector<std::string> calls;
  for (const Span& span : tracer.Collect()) {
    EXPECT_EQ(span.layer, Layer::kNovafs);
    calls.push_back(span.name);
  }
  EXPECT_EQ(calls, (std::vector<std::string>{"open", "write", "close"}));
}

TEST(BlockPattern, DetectsWrongBlockGenerationAndShift) {
  std::vector<uint8_t> block(4096);
  const uint64_t base = BlockPatternBase(1, 2, 3, 4);
  FillBlock(block.data(), base);
  EXPECT_TRUE(CheckBlock(block.data(), base));
  EXPECT_FALSE(CheckBlock(block.data(), BlockPatternBase(1, 2, 3, 5)));
  EXPECT_FALSE(CheckBlock(block.data(), BlockPatternBase(1, 2, 4, 4)));
  EXPECT_FALSE(CheckBlock(block.data(), BlockPatternBase(2, 2, 3, 4)));
  std::vector<uint8_t> shifted(block.begin() + 8, block.end());
  shifted.resize(4096, 0);
  EXPECT_FALSE(CheckBlock(shifted.data(), base));
  block[4095] ^= 1;
  EXPECT_FALSE(CheckBlock(block.data(), base));
}

}  // namespace
}  // namespace perfbench
