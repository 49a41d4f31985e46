// The benchmarked stack: Vfs -> Mux -> {novafs, xfslite, extlite} ->
// {PM, SSD, HDD} (Figure 1b), one instance per run.
//
// Untraced, the tier file systems are registered with Mux directly and Mux is
// mounted in the Vfs directly — the production wiring. Traced, a TimingFs
// sits around Mux in the Vfs and around each tier file system in AddTier.
// Devices and the Vfs record into Mux's metrics registry, as in
// tests/mux_rig.h.
#ifndef PERFBENCH_HARNESS_STACK_H_
#define PERFBENCH_HARNESS_STACK_H_

#include <memory>
#include <optional>

#include "src/common/clock.h"
#include "src/core/mux.h"
#include "src/device/block_device.h"
#include "src/device/pm_device.h"
#include "src/fs/extlite/extlite.h"
#include "src/fs/novafs/novafs.h"
#include "src/fs/xfslite/xfslite.h"
#include "harness/timing_fs.h"
#include "src/vfs/vfs.h"

namespace perfbench {

struct StackSizes {
  uint64_t pm_bytes = 0;
  uint64_t ssd_bytes = 0;
  uint64_t hdd_bytes = 0;
};

class Stack {
 public:
  static constexpr const char* kMountPoint = "/mux";

  Stack(const StackSizes& sizes, mux::core::Mux::Options options,
        SpanTracer* tracer)
      : pm_dev_(mux::device::DeviceProfile::OptanePm(sizes.pm_bytes), &clock_),
        ssd_dev_(mux::device::DeviceProfile::OptaneSsd(sizes.ssd_bytes),
                 &clock_),
        hdd_dev_(mux::device::DeviceProfile::ExosHdd(sizes.hdd_bytes),
                 &clock_),
        novafs_(&pm_dev_, &clock_),
        xfslite_(&ssd_dev_, &clock_),
        extlite_(&hdd_dev_, &clock_),
        mux_(std::make_unique<mux::core::Mux>(&clock_, std::move(options))) {
    status_ = novafs_.Format();
    if (status_.ok()) status_ = xfslite_.Format();
    if (status_.ok()) status_ = extlite_.Format();
    mux::vfs::FileSystem* pm = &novafs_;
    mux::vfs::FileSystem* ssd = &xfslite_;
    mux::vfs::FileSystem* hdd = &extlite_;
    mux::vfs::FileSystem* top = mux_.get();
    if (tracer != nullptr) {
      pm = &pm_timing_.emplace(&novafs_, tracer, Layer::kNovafs);
      ssd = &ssd_timing_.emplace(&xfslite_, tracer, Layer::kXfslite);
      hdd = &hdd_timing_.emplace(&extlite_, tracer, Layer::kExtlite);
      top = &mux_timing_.emplace(mux_.get(), tracer, Layer::kMux);
    }
    AddTier("pm", pm, pm_dev_.profile(), &pm_tier_);
    AddTier("ssd", ssd, ssd_dev_.profile(), &ssd_tier_);
    AddTier("hdd", hdd, hdd_dev_.profile(), &hdd_tier_);
    if (status_.ok()) status_ = vfs_.Mount(kMountPoint, top);
    pm_dev_.AttachObs(&mux_->metrics(), &mux_->trace(), "pm");
    ssd_dev_.AttachObs(&mux_->metrics(), &mux_->trace(), "ssd");
    hdd_dev_.AttachObs(&mux_->metrics(), &mux_->trace(), "hdd");
    vfs_.SetObs(&mux_->metrics(), &mux_->trace(), &clock_);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // The devices and the Vfs point into Mux's registry; detach them before
  // Mux goes away.
  ~Stack() {
    vfs_.SetObs(nullptr, nullptr, nullptr);
    pm_dev_.AttachObs(nullptr, nullptr, "pm");
    ssd_dev_.AttachObs(nullptr, nullptr, "ssd");
    hdd_dev_.AttachObs(nullptr, nullptr, "hdd");
  }

  const mux::Status& status() const { return status_; }
  mux::SimClock& clock() { return clock_; }
  mux::vfs::Vfs& vfs() { return vfs_; }
  mux::core::Mux& mux() { return *mux_; }
  mux::device::PmDevice& pm_dev() { return pm_dev_; }
  mux::device::BlockDevice& ssd_dev() { return ssd_dev_; }
  mux::device::BlockDevice& hdd_dev() { return hdd_dev_; }
  // The undecorated tier file systems (for counters and StatFs samples
  // that must not show up as spans).
  mux::fs::NovaFs& novafs() { return novafs_; }
  mux::fs::XfsLite& xfslite() { return xfslite_; }
  mux::fs::ExtLite& extlite() { return extlite_; }
  mux::core::TierId pm_tier() const { return pm_tier_; }
  mux::core::TierId ssd_tier() const { return ssd_tier_; }
  mux::core::TierId hdd_tier() const { return hdd_tier_; }

 private:
  void AddTier(const char* name, mux::vfs::FileSystem* fs,
               const mux::device::DeviceProfile& profile,
               mux::core::TierId* id) {
    if (!status_.ok()) {
      return;
    }
    auto added = mux_->AddTier(name, fs, profile);
    status_ = added.status();
    *id = added.value_or(mux::core::kInvalidTier);
  }

  mux::SimClock clock_;
  mux::device::PmDevice pm_dev_;
  mux::device::BlockDevice ssd_dev_;
  mux::device::BlockDevice hdd_dev_;
  mux::fs::NovaFs novafs_;
  mux::fs::XfsLite xfslite_;
  mux::fs::ExtLite extlite_;
  // Declared before mux_: Mux closes its shadow handles through them when it
  // is destroyed.
  std::optional<TimingFs> pm_timing_;
  std::optional<TimingFs> ssd_timing_;
  std::optional<TimingFs> hdd_timing_;
  std::unique_ptr<mux::core::Mux> mux_;
  std::optional<TimingFs> mux_timing_;
  mux::vfs::Vfs vfs_;
  mux::Status status_;
  mux::core::TierId pm_tier_ = mux::core::kInvalidTier;
  mux::core::TierId ssd_tier_ = mux::core::kInvalidTier;
  mux::core::TierId hdd_tier_ = mux::core::kInvalidTier;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STACK_H_
