#include "harness/workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>

#include "src/common/random.h"
#include "harness/stack.h"

namespace perfbench {

using mux::Status;
using mux::core::Mux;
using mux::vfs::FileHandle;
using mux::vfs::OpenFlags;

namespace {

constexpr uint64_t kBlock = 4096;
constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kWordStep = 0x9e3779b97f4a7c15ULL;
constexpr double kZipfTheta = 0.99;

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PerOp(double value, uint64_t ops) {
  return ops == 0 ? 0.0 : value / static_cast<double>(ops);
}
double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Everything the layers export that a window delta is taken over.
struct LayerSample {
  mux::SimTime sim_ns = 0;
  mux::core::MuxStats mux;
  mux::core::ScmCacheStats cache;
  std::array<mux::device::DeviceStats, 3> dev;  // pm, ssd, hdd
  mux::fs::PageCacheStats xfs_cache;
  mux::fs::PageCacheStats ext_cache;
  mux::fs::JournalStats xfs_journal;
  uint64_t user_write_bytes = 0;
  RoundTotals rounds;
};

constexpr const char* kDeviceNames[3] = {"pm", "ssd", "hdd"};

// One client thread driving one stack. Subclasses are the workloads.
class Client {
 public:
  explicit Client(const RunConfig& config)
      : config_(config),
        tracer_(config.tracer),
        rng_(Mix64(config.seed ^ 0x6f70735f72616e64ULL)) {}
  virtual ~Client() = default;

  // Build + format + AddTier + populate + placement + warm-up.
  Status SetUp() {
    stack_ = std::make_unique<Stack>(Sizes(), Options(), tracer_);
    MUX_RETURN_IF_ERROR(stack_->status());
    MUX_RETURN_IF_ERROR(Populate());
    for (uint64_t i = 0; i < WarmupOps(); ++i) {
      Op();
    }
    MUX_RETURN_IF_ERROR(harness_);
    if (warmup_failures_ > 0) {
      return mux::InternalError(std::to_string(warmup_failures_) +
                                " warm-up op(s) failed");
    }
    return Status::Ok();
  }

  void Measure(RunResult* r) {
    result_ = r;
    stack_->mux().metrics().Reset();
    const LayerSample begin = Sample();
    const uint64_t window = WindowOps();
    const uint64_t limit_ns = static_cast<uint64_t>(config_.seconds * 1e9);
    r->window_first_id = op_id_ + 1;
    measuring_ = true;
    const uint64_t t0 = WallNowNs();
    last_op_end_ = t0;
    r->slices.resize(1);
    uint64_t slice_start = t0;
    for (uint64_t i = 0;; ++i) {
      if (r->slices.back().ops == PhaseSlice::kSliceOps) {
        r->slices.back().wall_ns = last_op_end_ - slice_start;
        slice_start = last_op_end_;
        r->slices.emplace_back();
      }
      if (i == window) {
        r->window_wall_ns = WallNowNs() - t0;
        r->window_last_id = op_id_;
        r->window_ops = window;
        WindowMetrics(begin, Sample(), r);
        if (config_.window_only) {
          break;
        }
      }
      if (i >= window && last_op_end_ - t0 >= limit_ns) {
        break;
      }
      Op();
    }
    r->wall_ns = WallNowNs() - t0;
    if (r->slices.back().ops == PhaseSlice::kSliceOps) {
      r->slices.back().wall_ns = last_op_end_ - slice_start;
    } else {
      r->slices.pop_back();  // incomplete
    }
    measuring_ = false;
    r->phase_rounds = Minus(rounds_, begin.rounds);
    if (!harness_.ok() && r->status.ok()) {
      r->status = harness_;
    }
  }

  // Host cost of one MetricsRegistry::Add, timed on a copy registry seeded
  // with the run's counter names (so the map has the run's size and shape).
  double ObsAddNs() const {
    mux::obs::MetricsRegistry copy;
    std::vector<std::string> names;
    for (const auto& [name, value] : stack_->mux().metrics().Counters()) {
      copy.Add(name, value);
      names.push_back(name);
    }
    if (names.empty()) {
      return 0.0;
    }
    constexpr uint64_t kAdds = 200000;
    const uint64_t t0 = WallNowNs();
    for (uint64_t i = 0; i < kAdds; ++i) {
      copy.Add(names[i % names.size()], 1);
    }
    return static_cast<double>(WallNowNs() - t0) / kAdds;
  }

  void Fsck(RunResult* r) {
    auto report = stack_->mux().Fsck();
    if (!report.ok()) {
      r->fsck_detail = report.status().ToString();
      return;
    }
    r->fsck_clean = report->Clean();
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "files=%llu blocks=%llu missing_shadows=%llu "
                  "size_inconsistencies=%llu replica_mismatches=%llu",
                  static_cast<unsigned long long>(report->files_checked),
                  static_cast<unsigned long long>(report->blocks_checked),
                  static_cast<unsigned long long>(report->missing_shadows),
                  static_cast<unsigned long long>(report->size_inconsistencies),
                  static_cast<unsigned long long>(report->replica_mismatches));
    r->fsck_detail = detail;
  }

 protected:
  virtual StackSizes Sizes() const = 0;
  virtual Mux::Options Options() const = 0;
  virtual Status Populate() = 0;
  // One client op (ingest-migrate also runs any round/checkpoint now due).
  virtual void Op() = 0;
  virtual uint64_t WarmupOps() const = 0;
  virtual uint64_t WindowOps() const = 0;
  virtual uint64_t LiveUserBytes() const = 0;

  Stack& stack() { return *stack_; }
  mux::vfs::Vfs& vfs() { return stack_->vfs(); }
  uint64_t seed() const { return config_.seed; }

  // Starts the next client op, round or checkpoint: every span opened from
  // now on, on any thread, belongs to it.
  void NextOp() {
    ++op_id_;
    if (tracer_ != nullptr) {
      tracer_->SetOp(op_id_);
    }
  }

  // Runs `fn` — the op's Vfs calls — as one client op: a fresh op id, a
  // "vfs" span when traced, and the wall time it took.
  template <typename Fn>
  uint64_t Timed(const char* name, Fn&& fn) {
    NextOp();
    const uint64_t t0 = WallNowNs();
    {
      ScopedSpan span(tracer_, Layer::kVfs, name);
      fn();
    }
    last_op_end_ = WallNowNs();
    return last_op_end_ - t0;
  }

  void Record(OpClass cls, uint64_t ns, bool ok, const char* what) {
    if (!ok && failures_logged_ < 5) {
      ++failures_logged_;
      std::fprintf(stderr, "[perfbench] %s op failed: %s\n",
                   OpClassName(cls), what);
    }
    if (!measuring_) {
      warmup_failures_ += ok ? 0 : 1;
      return;
    }
    result_->latency[static_cast<int>(cls)].Add(ns);
    result_->all_ops.Add(ns);
    PhaseSlice& slice = result_->slices.back();
    slice.ops++;
    slice.all.Add(ns);
    if (cls == OpClass::kRead) {
      slice.read.Add(ns);
    }
    result_->attempted++;
    result_->failed += ok ? 0 : 1;
  }

  // Reads `blocks` blocks at `first_block` of file `file` and checks each
  // against its pattern (`generations` = per-block write generation of the
  // file, or null for never-rewritten data).
  void ReadOp(OpClass cls, FileHandle handle, uint64_t file,
              uint64_t first_block, uint64_t blocks,
              const uint32_t* generations) {
    const uint64_t length = blocks * kBlock;
    buf_.resize(length);
    bool ok = false;
    const uint64_t ns = Timed("read", [&] {
      auto got = vfs().Read(handle, first_block * kBlock, length, buf_.data());
      ok = got.ok() && *got == length;
    });
    const char* what = ok ? "content mismatch" : "error or short read";
    for (uint64_t b = 0; ok && b < blocks; ++b) {
      const uint64_t block = first_block + b;
      const uint64_t gen = generations == nullptr ? 0 : generations[block];
      ok = CheckBlock(buf_.data() + b * kBlock,
                      BlockPatternBase(seed(), file, block, gen));
    }
    Record(cls, ns, ok, what);
  }

  // Creates `path` and writes `blocks` blocks of file `file`'s pattern
  // (generation 0). Set-up only: not a client op.
  mux::Result<FileHandle> CreateFilled(const std::string& path,
                                       uint64_t file, uint64_t blocks,
                                       uint64_t chunk_blocks) {
    MUX_ASSIGN_OR_RETURN(FileHandle handle,
                         vfs().Open(path, OpenFlags::kCreateRw));
    buf_.resize(chunk_blocks * kBlock);
    for (uint64_t first = 0; first < blocks; first += chunk_blocks) {
      const uint64_t n = std::min(chunk_blocks, blocks - first);
      for (uint64_t b = 0; b < n; ++b) {
        FillBlock(buf_.data() + b * kBlock,
                  BlockPatternBase(seed(), file, first + b, 0));
      }
      MUX_ASSIGN_OR_RETURN(
          uint64_t written,
          vfs().Write(handle, first * kBlock, buf_.data(), n * kBlock));
      if (written != n * kBlock) {
        return mux::InternalError("short populate write to " + path);
      }
    }
    return handle;
  }

  // Set-up placement move, inside a "setup_migrate" span when traced.
  Status SetupMigrate(const std::string& path, uint64_t first_block,
                      uint64_t count, mux::core::TierId to) {
    NextOp();
    ScopedSpan span(tracer_, Layer::kSetupMigrate, "migrate");
    return count == 0 ? stack_->mux().MigrateFile(path, to)
                      : stack_->mux().MigrateRange(path, first_block, count,
                                                   to);
  }

  // One synchronous policy round between client ops.
  void Round() {
    Mux& mux = stack_->mux();
    NextOp();
    const mux::core::MuxStats before = mux.stats();
    const mux::SimTime sim0 = stack_->clock().Now();
    const uint64_t t0 = WallNowNs();
    Status status;
    {
      ScopedSpan span(tracer_, Layer::kRound, "policy_round");
      status = mux.RunPolicyMigrations();
    }
    const uint64_t t1 = WallNowNs();
    last_op_end_ = t1;
    const mux::core::MuxStats after = mux.stats();
    rounds_.rounds++;
    rounds_.wall_ns += t1 - t0;
    rounds_.sim_ns += stack_->clock().Now() - sim0;
    rounds_.blocks += after.migrated_blocks - before.migrated_blocks;
    // LastMigrationRoundStats() is only replaced by a round that planned
    // tasks; one that ran no pass and failed nothing planned none.
    if (after.migration_passes != before.migration_passes ||
        after.migration_task_failures != before.migration_task_failures) {
      rounds_.tasks += mux.LastMigrationRoundStats().submitted;
    }
    if (!status.ok() && harness_.ok()) {
      harness_ = status;
    }
  }

  void Checkpoint() {
    NextOp();
    Status status;
    {
      ScopedSpan span(tracer_, Layer::kCheckpoint, "checkpoint");
      status = stack_->mux().Checkpoint();
    }
    last_op_end_ = WallNowNs();
    if (measuring_) {
      result_->checkpoints++;
    }
    if (!status.ok() && harness_.ok()) {
      harness_ = status;
    }
  }

  const RunConfig& config_;
  SpanTracer* const tracer_;
  mux::Rng rng_;  // op choices; the zipfian file choosers are seeded apart
  std::vector<uint8_t> buf_;
  uint64_t user_write_bytes_ = 0;

 private:
  static RoundTotals Minus(const RoundTotals& a, const RoundTotals& b) {
    return RoundTotals{a.rounds - b.rounds, a.wall_ns - b.wall_ns,
                       a.sim_ns - b.sim_ns, a.blocks - b.blocks,
                       a.tasks - b.tasks};
  }

  LayerSample Sample() {
    LayerSample s;
    Mux& mux = stack_->mux();
    s.sim_ns = stack_->clock().Now();
    s.mux = mux.stats();
    s.cache = mux.CacheStats();
    s.dev = {stack_->pm_dev().stats(), stack_->ssd_dev().stats(),
             stack_->hdd_dev().stats()};
    s.xfs_cache = stack_->xfslite().CacheStats();
    s.ext_cache = stack_->extlite().CacheStats();
    s.xfs_journal = stack_->xfslite().GetJournalStats();
    s.user_write_bytes = user_write_bytes_;
    s.rounds = rounds_;
    return s;
  }

  // Used bytes over every tier file system, per live user byte.
  double SpaceAmp() {
    uint64_t used = 0;
    mux::vfs::FileSystem* tiers[3] = {&stack_->novafs(), &stack_->xfslite(),
                                      &stack_->extlite()};
    for (mux::vfs::FileSystem* fs : tiers) {
      auto st = fs->StatFs();
      if (st.ok()) {
        used += st->capacity_bytes - st->free_bytes;
      }
    }
    return Ratio(static_cast<double>(used),
                 static_cast<double>(LiveUserBytes()));
  }

  void WindowMetrics(const LayerSample& a, const LayerSample& b,
                     RunResult* r) {
    Mux& mux = stack_->mux();
    const uint64_t ops = r->window_ops;
    auto& x = r->exact;
    x["sim_us_per_op"] = PerOp((b.sim_ns - a.sim_ns) / 1e3, ops);
    x["space_amp"] = SpaceAmp();

    const auto& metrics = mux.metrics();
    x["mux.sw_sim_ns_per_op"] =
        PerOp(static_cast<double>(metrics.CounterValue("mux.sw.total_ns")), ops);
    x["mux.split_segments_per_op"] = PerOp(
        static_cast<double>(b.mux.split_segments - a.mux.split_segments), ops);
    x["mux.blt_bytes"] = static_cast<double>(mux.BltMemoryBytes());

    const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
    const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
    x["cache.hit_rate"] = Ratio(hits, hits + misses);
    x["cache.admissions_per_kop"] = PerOp(
        1e3 * static_cast<double>(b.cache.admissions - a.cache.admissions), ops);
    x["cache.evictions_per_kop"] = PerOp(
        1e3 * static_cast<double>(b.cache.evictions - a.cache.evictions), ops);
    x["cache.agg_flush_kib"] =
        Ratio(static_cast<double>(b.cache.agg_flush_bytes -
                                  a.cache.agg_flush_bytes) / 1024.0,
              static_cast<double>(b.cache.agg_flushes - a.cache.agg_flushes));

    x["async.fanouts_per_kop"] = PerOp(
        1e3 * static_cast<double>(metrics.CounterValue("mux.parallel.fanouts")),
        ops);
    x["async.channel_wait_sim_us_mean"] =
        metrics.HistogramValue("sched.qdepth.wait_ns").Mean() / 1e3;
    r->wall["async.dispatch_us_p50"] =
        metrics.HistogramValue("sched.dispatch_ns").Percentile(50) / 1e3;
    r->wall["async.resume_wait_us_p50"] =
        metrics.HistogramValue("sched.resume_wait_ns").Percentile(50) / 1e3;

    const RoundTotals rounds = Minus(b.rounds, a.rounds);
    const double moved_mib =
        static_cast<double>(rounds.blocks * kBlock) / static_cast<double>(kMiB);
    x["migrate.rounds"] = static_cast<double>(rounds.rounds);
    x["migrate.mib_per_round"] =
        Ratio(moved_mib, static_cast<double>(rounds.rounds));
    x["migrate.tasks_per_round"] = Ratio(static_cast<double>(rounds.tasks),
                                         static_cast<double>(rounds.rounds));
    x["migrate.task_failures"] = static_cast<double>(
        b.mux.migration_task_failures - a.mux.migration_task_failures);
    x["migrate.occ_conflicts"] =
        static_cast<double>(b.mux.occ.conflicts - a.mux.occ.conflicts);
    x["migrate.sim_mib_s"] =
        Ratio(moved_mib, static_cast<double>(rounds.sim_ns) / 1e9);
    r->wall["migrate.mib_s"] =
        Ratio(moved_mib, static_cast<double>(rounds.wall_ns) / 1e9);

    auto meta = stack_->novafs().Stat(Mux::Options().meta_path);
    x["ckpt.snapshot_kib"] =
        meta.ok() ? static_cast<double>(meta->size) / 1024.0 : 0.0;

    const double xfs_hits =
        static_cast<double>(b.xfs_cache.hits - a.xfs_cache.hits);
    const double xfs_misses =
        static_cast<double>(b.xfs_cache.misses - a.xfs_cache.misses);
    const double ext_hits =
        static_cast<double>(b.ext_cache.hits - a.ext_cache.hits);
    const double ext_misses =
        static_cast<double>(b.ext_cache.misses - a.ext_cache.misses);
    x["fs.xfslite.pcache_hit_rate"] = Ratio(xfs_hits, xfs_hits + xfs_misses);
    x["fs.extlite.pcache_hit_rate"] = Ratio(ext_hits, ext_hits + ext_misses);
    x["fs.xfslite.journal_commits_per_kop"] = PerOp(
        1e3 * static_cast<double>(b.xfs_journal.commits - a.xfs_journal.commits),
        ops);

    uint64_t device_written = 0;
    for (int d = 0; d < 3; ++d) {
      const auto& da = a.dev[d];
      const auto& db = b.dev[d];
      const std::string prefix = std::string("dev.") + kDeviceNames[d] + ".";
      x[prefix + "read_kib_per_op"] = PerOp(
          static_cast<double>(db.bytes_read - da.bytes_read) / 1024.0, ops);
      x[prefix + "write_kib_per_op"] = PerOp(
          static_cast<double>(db.bytes_written - da.bytes_written) / 1024.0,
          ops);
      x[prefix + "busy_sim_us_per_op"] =
          PerOp(static_cast<double>(db.busy_ns - da.busy_ns) / 1e3, ops);
      device_written += db.bytes_written - da.bytes_written;
    }
    x["dev.hdd.seeks_per_kop"] =
        PerOp(1e3 * static_cast<double>(b.dev[2].seeks - a.dev[2].seeks), ops);
    x["dev.ssd.flushes_per_kop"] = PerOp(
        1e3 * static_cast<double>(b.dev[1].flushes - a.dev[1].flushes), ops);
    x["dev.hdd.flushes_per_kop"] = PerOp(
        1e3 * static_cast<double>(b.dev[2].flushes - a.dev[2].flushes), ops);
    x["dev.write_amp"] =
        Ratio(static_cast<double>(device_written),
              static_cast<double>(b.user_write_bytes - a.user_write_bytes));
  }

  std::unique_ptr<Stack> stack_;
  RunResult* result_ = nullptr;
  bool measuring_ = false;
  uint32_t op_id_ = 0;
  uint64_t last_op_end_ = 0;
  uint64_t warmup_failures_ = 0;
  uint64_t failures_logged_ = 0;
  RoundTotals rounds_;
  Status harness_;  // first round/checkpoint error
};

// ---- hot-read -------------------------------------------------------------
// 4 KiB reads of a 64 MiB data set that lives entirely on PM: isolates the
// per-op host cost of Vfs + Mux over novafs (paper §3.2).
class HotRead : public Client {
 public:
  using Client::Client;

 protected:
  static constexpr uint64_t kFiles = 512;
  static constexpr uint64_t kFileBlocks = 32;  // 128 KiB

  StackSizes Sizes() const override {
    return StackSizes{128 * kMiB, 32 * kMiB, 32 * kMiB};
  }
  Mux::Options Options() const override { return Mux::Options(); }
  uint64_t WarmupOps() const override { return 20000; }
  uint64_t WindowOps() const override { return 200000; }
  uint64_t LiveUserBytes() const override {
    return kFiles * kFileBlocks * kBlock;
  }

  Status Populate() override {
    MUX_RETURN_IF_ERROR(vfs().Mkdir("/mux/hot"));
    for (uint64_t f = 0; f < kFiles; ++f) {
      const std::string path = "/hot/f" + std::to_string(f);
      MUX_ASSIGN_OR_RETURN(FileHandle handle,
                           CreateFilled("/mux" + path, f, kFileBlocks,
                                        kFileBlocks));
      handles_.push_back(handle);
      MUX_ASSIGN_OR_RETURN(auto split,
                           stack().mux().FileTierBreakdown(path));
      if (split.size() != 1 || split.begin()->first != stack().pm_tier()) {
        return mux::InternalError("hot-read data spilled off PM: " + path);
      }
    }
    zipf_ = std::make_unique<mux::ZipfianGenerator>(kFiles, kZipfTheta,
                                                    Mix64(seed() + 1));
    return Status::Ok();
  }

  void Op() override {
    const uint64_t file = zipf_->Next();
    const uint64_t block = rng_.Below(kFileBlocks);
    ReadOp(OpClass::kRead, handles_[file], file, block, 1, nullptr);
  }

 private:
  std::vector<FileHandle> handles_;
  std::unique_ptr<mux::ZipfianGenerator> zipf_;
};

// ---- tiered-read ------------------------------------------------------------
// 16 KiB reads over 128 MiB placed on SSD and HDD (and split across them),
// fronted by a 32 MiB SCM cache: the working set is 4x the cache, so the
// cache, the cross-tier split path and the block-FS page caches all work.
class TieredRead : public Client {
 public:
  using Client::Client;

 protected:
  static constexpr uint64_t kFiles = 1024;
  static constexpr uint64_t kFileBlocks = 32;  // 128 KiB
  static constexpr uint64_t kReadBlocks = 4;   // 16 KiB
  static constexpr uint64_t kMidBlock = kFileBlocks / 2;

  // Placement by file index: 0,1 -> SSD, 2 -> HDD, 3 -> SSD|HDD split at
  // the midpoint. Zipf rank = file index, so every class has hot files.
  static bool IsSplit(uint64_t file) { return file % 4 == 3; }

  StackSizes Sizes() const override {
    return StackSizes{64 * kMiB, 192 * kMiB, 128 * kMiB};
  }
  Mux::Options Options() const override {
    Mux::Options options;
    options.enable_scm_cache = true;
    options.cache.capacity_blocks = kFiles * kFileBlocks / 4;  // 32 MiB
    return options;
  }
  uint64_t WarmupOps() const override { return 100000; }
  uint64_t WindowOps() const override { return 100000; }
  uint64_t LiveUserBytes() const override {
    return kFiles * kFileBlocks * kBlock;
  }

  Status Populate() override {
    MUX_RETURN_IF_ERROR(vfs().Mkdir("/mux/tiered"));
    const auto ssd = stack().ssd_tier();
    const auto hdd = stack().hdd_tier();
    for (uint64_t f = 0; f < kFiles; ++f) {
      const std::string path = "/tiered/f" + std::to_string(f);
      MUX_ASSIGN_OR_RETURN(FileHandle handle,
                           CreateFilled("/mux" + path, f, kFileBlocks,
                                        kFileBlocks));
      handles_.push_back(handle);
      std::map<mux::core::TierId, uint64_t> want;
      switch (f % 4) {
        case 0:
        case 1:
          MUX_RETURN_IF_ERROR(SetupMigrate(path, 0, 0, ssd));
          want[ssd] = kFileBlocks;
          break;
        case 2:
          MUX_RETURN_IF_ERROR(SetupMigrate(path, 0, 0, hdd));
          want[hdd] = kFileBlocks;
          break;
        default:
          MUX_RETURN_IF_ERROR(SetupMigrate(path, 0, kMidBlock, ssd));
          MUX_RETURN_IF_ERROR(SetupMigrate(path, kMidBlock, kMidBlock, hdd));
          want[ssd] = kMidBlock;
          want[hdd] = kFileBlocks - kMidBlock;
          break;
      }
      MUX_ASSIGN_OR_RETURN(auto placed,
                           stack().mux().FileTierBreakdown(path));
      if (placed != want) {
        return mux::InternalError("tiered-read placement failed: " + path);
      }
    }
    zipf_ = std::make_unique<mux::ZipfianGenerator>(kFiles, kZipfTheta,
                                                    Mix64(seed() + 2));
    return Status::Ok();
  }

  void Op() override {
    const uint64_t file = zipf_->Next();
    const uint64_t first = rng_.Below(kFileBlocks - kReadBlocks + 1);
    const bool split = IsSplit(file) && first < kMidBlock &&
                       first + kReadBlocks > kMidBlock;
    ReadOp(split ? OpClass::kSplitRead : OpClass::kRead, handles_[file], file,
           first, kReadBlocks, nullptr);
  }

 private:
  std::vector<FileHandle> handles_;
  std::unique_ptr<mux::ZipfianGenerator> zipf_;
};

// ---- ingest-migrate -----------------------------------------------------------
// Overwrites, verified reads, fsyncs and create/unlink churn over 256 MiB
// (2x the PM tier), with a synchronous lru policy round every 4096 ops and a
// checkpoint every 32768: the write path and migration share the tiers.
class IngestMigrate : public Client {
 public:
  using Client::Client;

 protected:
  static constexpr uint64_t kFiles = 256;
  static constexpr uint64_t kFileBlocks = 256;  // 1 MiB
  static constexpr uint64_t kIoBlocks = 4;      // 16 KiB
  static constexpr uint64_t kMaxCreated = 2048;
  static constexpr uint64_t kCreateDirs = 32;
  static constexpr uint64_t kRoundEvery = 4096;
  static constexpr uint64_t kCheckpointEvery = 32768;
  static constexpr const char* kNewDir = "/mux/ingest/new";

  StackSizes Sizes() const override {
    return StackSizes{128 * kMiB, 512 * kMiB, 128 * kMiB};
  }
  Mux::Options Options() const override {
    Mux::Options options;
    // One server thread per ring: each policy round drains in one order.
    options.io_threads_per_tier = 1;
    return options;
  }
  uint64_t WarmupOps() const override { return 16 * kRoundEvery; }
  uint64_t WindowOps() const override { return 32 * kRoundEvery; }
  uint64_t LiveUserBytes() const override {
    return (kFiles * kFileBlocks + created_.size() * kIoBlocks) * kBlock;
  }

  Status Populate() override {
    MUX_RETURN_IF_ERROR(vfs().Mkdir("/mux/ingest"));
    MUX_RETURN_IF_ERROR(vfs().Mkdir(kNewDir));
    for (uint64_t d = 0; d < kCreateDirs; ++d) {
      MUX_RETURN_IF_ERROR(vfs().Mkdir(std::string(kNewDir) + "/d" +
                                      std::to_string(d)));
    }
    for (uint64_t f = 0; f < kFiles; ++f) {
      MUX_ASSIGN_OR_RETURN(
          FileHandle handle,
          CreateFilled("/mux/ingest/f" + std::to_string(f), f, kFileBlocks,
                       64));
      handles_.push_back(handle);
    }
    generations_.assign(kFiles * kFileBlocks, 0);
    zipf_ = std::make_unique<mux::ZipfianGenerator>(kFiles, kZipfTheta,
                                                    Mix64(seed() + 3));
    return Status::Ok();
  }

  void Op() override {
    const uint64_t file = zipf_->Next();
    const uint64_t first = rng_.Below(kFileBlocks / kIoBlocks) * kIoBlocks;
    const uint64_t pick = rng_.Below(100);
    if (pick < 55) {
      Overwrite(file, first);
    } else if (pick < 90) {
      ReadOp(OpClass::kRead, handles_[file], file, first, kIoBlocks,
             &generations_[file * kFileBlocks]);
    } else if (pick < 95) {
      bool ok = false;
      const uint64_t ns =
          Timed("fsync", [&] { ok = vfs().Fsync(handles_[file]).ok(); });
      Record(OpClass::kFsync, ns, ok, "fsync error");
    } else {
      Create();
    }
    if (++ops_ % kRoundEvery == 0) {
      Round();
    }
    if (ops_ % kCheckpointEvery == 0) {
      Checkpoint();
    }
  }

 private:
  void Overwrite(uint64_t file, uint64_t first) {
    const uint64_t length = kIoBlocks * kBlock;
    buf_.resize(length);
    uint32_t* gens = &generations_[file * kFileBlocks];
    for (uint64_t b = 0; b < kIoBlocks; ++b) {
      const uint64_t block = first + b;
      FillBlock(buf_.data() + b * kBlock,
                BlockPatternBase(seed(), file, block, ++gens[block]));
    }
    bool ok = false;
    const uint64_t ns = Timed("write", [&] {
      auto got = vfs().Write(handles_[file], first * kBlock, buf_.data(),
                             length);
      ok = got.ok() && *got == length;
    });
    user_write_bytes_ += length;
    Record(OpClass::kWrite, ns, ok, "write error or short write");
  }

  // Open a new file, write 16 KiB, close; past kMaxCreated live files the
  // op first unlinks the oldest.
  void Create() {
    const uint64_t id = kFiles + next_created_++;
    const std::string path = std::string(kNewDir) + "/d" +
                             std::to_string(id % kCreateDirs) + "/c" +
                             std::to_string(id);
    const uint64_t length = kIoBlocks * kBlock;
    buf_.resize(length);
    for (uint64_t b = 0; b < kIoBlocks; ++b) {
      FillBlock(buf_.data() + b * kBlock, BlockPatternBase(seed(), id, b, 0));
    }
    bool ok = true;
    const uint64_t ns = Timed("create", [&] {
      if (created_.size() >= kMaxCreated) {
        ok = vfs().Unlink(created_.front()).ok();
      }
      auto handle = vfs().Open(path, OpenFlags::kCreateRw);
      if (!handle.ok()) {
        ok = false;
        return;
      }
      auto got = vfs().Write(*handle, 0, buf_.data(), length);
      ok = ok && got.ok() && *got == length;
      ok = vfs().Close(*handle).ok() && ok;
    });
    if (created_.size() >= kMaxCreated) {
      created_.pop_front();
    }
    created_.push_back(path);
    user_write_bytes_ += length;
    Record(OpClass::kCreate, ns, ok, "create/unlink error");
  }

  std::vector<FileHandle> handles_;
  std::vector<uint32_t> generations_;  // [file * kFileBlocks + block]
  std::deque<std::string> created_;
  uint64_t next_created_ = 0;
  uint64_t ops_ = 0;
  std::unique_ptr<mux::ZipfianGenerator> zipf_;
};

std::unique_ptr<Client> MakeClient(const RunConfig& config) {
  if (config.workload == "hot-read") {
    return std::make_unique<HotRead>(config);
  }
  if (config.workload == "tiered-read") {
    return std::make_unique<TieredRead>(config);
  }
  if (config.workload == "ingest-migrate") {
    return std::make_unique<IngestMigrate>(config);
  }
  return nullptr;
}

}  // namespace

const char* OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kRead: return "read";
    case OpClass::kSplitRead: return "split_read";
    case OpClass::kWrite: return "write";
    case OpClass::kFsync: return "fsync";
    case OpClass::kCreate: return "create";
  }
  return "?";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"hot-read", "tiered-read",
                                                 "ingest-migrate"};
  return names;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

uint64_t BlockPatternBase(uint64_t seed, uint64_t file, uint64_t block,
                          uint64_t generation) {
  uint64_t h = Mix64(seed + kWordStep);
  h = Mix64(h ^ ((file + 1) * 0xff51afd7ed558ccdULL));
  h = Mix64(h ^ ((block + 1) * 0xc4ceb9fe1a85ec53ULL));
  return Mix64(h ^ (generation + 1));
}

void FillBlock(uint8_t* out, uint64_t base) {
  for (uint64_t i = 0; i < kBlock / 8; ++i) {
    const uint64_t word = base + i * kWordStep;
    std::memcpy(out + i * 8, &word, 8);
  }
}

bool CheckBlock(const uint8_t* data, uint64_t base) {
  for (uint64_t i = 0; i < kBlock / 8; ++i) {
    uint64_t word;
    std::memcpy(&word, data + i * 8, 8);
    if (word != base + i * kWordStep) {
      return false;
    }
  }
  return true;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult r;
  std::unique_ptr<Client> client;
  for (int rep = 0; rep < std::max(1, config.setup_reps); ++rep) {
    client.reset();  // one stack in memory at a time
    client = MakeClient(config);
    if (client == nullptr) {
      r.status = mux::InvalidArgumentError("unknown workload " +
                                           config.workload);
      return r;
    }
    const uint64_t t0 = WallNowNs();
    r.status = client->SetUp();
    r.setup_s.push_back(static_cast<double>(WallNowNs() - t0) / 1e9);
    if (!r.status.ok()) {
      return r;
    }
  }
  client->Measure(&r);
  if (config.window_only) {
    r.wall["obs.add_ns"] = client->ObsAddNs();
  }
  client->Fsck(&r);
  client.reset();  // joins Mux's threads: spans are quiescent after this
  return r;
}

void AddSpanMetrics(const std::vector<Span>& spans, const RunResult& run,
                    std::map<std::string, double>* out) {
  std::vector<Span> window;
  for (const Span& span : spans) {
    if (span.op >= run.window_first_id && span.op <= run.window_last_id) {
      window.push_back(span);
    }
  }
  const std::map<uint32_t, uint64_t> self = SelfTimes(window);
  std::unordered_map<uint32_t, Layer> layer_of;
  for (const Span& span : window) {
    layer_of[span.id] = span.layer;
  }
  struct FsTotals {
    uint64_t calls = 0;
    uint64_t ns = 0;
    uint64_t bytes = 0;
  };
  std::map<Layer, FsTotals> fs;
  double vfs_self_ns = 0;
  double mux_self_ns = 0;
  uint64_t mux_fs_calls = 0;
  std::vector<double> round_ms, round_self_ms, ckpt_ms;
  for (const Span& span : window) {
    const double self_ns = static_cast<double>(self.at(span.id));
    switch (span.layer) {
      case Layer::kVfs:
        vfs_self_ns += self_ns;
        break;
      case Layer::kMux:
        mux_self_ns += self_ns;
        break;
      case Layer::kRound:
        round_ms.push_back(static_cast<double>(span.duration()) / 1e6);
        round_self_ms.push_back(self_ns / 1e6);
        break;
      case Layer::kCheckpoint:
        ckpt_ms.push_back(static_cast<double>(span.duration()) / 1e6);
        break;
      case Layer::kSetupMigrate:
        break;
      default: {
        FsTotals& t = fs[span.layer];
        t.calls++;
        t.ns += span.duration();
        t.bytes += span.bytes;
        auto parent = layer_of.find(span.parent);
        if (parent != layer_of.end() && parent->second == Layer::kMux) {
          ++mux_fs_calls;
        }
        break;
      }
    }
  }
  const uint64_t ops = run.window_ops;
  auto& o = *out;
  o["vfs.self_us_per_op"] = PerOp(vfs_self_ns / 1e3, ops);
  o["mux.self_us_per_op"] = PerOp(mux_self_ns / 1e3, ops);
  o["mux.fs_calls_per_op"] = PerOp(static_cast<double>(mux_fs_calls), ops);
  o["migrate.round_ms_p50"] = Quantile(round_ms, 0.5);
  double round_self_sum = 0;
  for (double v : round_self_ms) {
    round_self_sum += v;
  }
  o["migrate.self_ms_per_round"] =
      Ratio(round_self_sum, static_cast<double>(round_self_ms.size()));
  o["ckpt.ms_p50"] = Quantile(ckpt_ms, 0.5);
  for (Layer layer : {Layer::kNovafs, Layer::kXfslite, Layer::kExtlite}) {
    const FsTotals& t = fs[layer];
    const std::string prefix = std::string("fs.") + LayerName(layer) + ".";
    o[prefix + "calls_per_op"] = PerOp(static_cast<double>(t.calls), ops);
    o[prefix + "us_per_call"] =
        Ratio(static_cast<double>(t.ns) / 1e3, static_cast<double>(t.calls));
    o[prefix + "kib_per_call"] = Ratio(static_cast<double>(t.bytes) / 1024.0,
                                       static_cast<double>(t.calls));
  }
}

}  // namespace perfbench
