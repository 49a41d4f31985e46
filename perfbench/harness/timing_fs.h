// A vfs::FileSystem decorator that times every call into the wrapped file
// system as a span (see span_trace.h). The benchmark mounts one around Mux
// in the Vfs and passes one to AddTier around each tier file system, the
// way vfs::FaultInjectingFs is interposed in the traffic engine.
//
// It forwards every virtual call unchanged and charges no simulated time,
// so a traced stack advances the SimClock exactly as an untraced one. The
// DAX calls (DaxMap/DaxUnmap/ChargeDax/SupportsDax) are forwarded without a
// span: an SCM-cache hit is a direct load, not a file-system call, so its
// cost stays in the caller's (Mux's) self time.
#ifndef PERFBENCH_HARNESS_TIMING_FS_H_
#define PERFBENCH_HARNESS_TIMING_FS_H_

#include <string>
#include <vector>

#include "harness/span_trace.h"
#include "src/vfs/file_system.h"

namespace perfbench {

class TimingFs : public mux::vfs::FileSystem {
 public:
  TimingFs(mux::vfs::FileSystem* inner, SpanTracer* tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  std::string_view Name() const override { return inner_->Name(); }

  mux::Result<mux::vfs::FileHandle> Open(const std::string& path,
                                         uint32_t flags,
                                         uint32_t mode) override {
    ScopedSpan span(tracer_, layer_, "open");
    return inner_->Open(path, flags, mode);
  }
  mux::Status Close(mux::vfs::FileHandle handle) override {
    ScopedSpan span(tracer_, layer_, "close");
    return inner_->Close(handle);
  }
  mux::Status Mkdir(const std::string& path, uint32_t mode) override {
    ScopedSpan span(tracer_, layer_, "mkdir");
    return inner_->Mkdir(path, mode);
  }
  mux::Status Rmdir(const std::string& path) override {
    ScopedSpan span(tracer_, layer_, "rmdir");
    return inner_->Rmdir(path);
  }
  mux::Status Unlink(const std::string& path) override {
    ScopedSpan span(tracer_, layer_, "unlink");
    return inner_->Unlink(path);
  }
  mux::Status Rename(const std::string& from, const std::string& to) override {
    ScopedSpan span(tracer_, layer_, "rename");
    return inner_->Rename(from, to);
  }
  mux::Result<mux::vfs::FileStat> Stat(const std::string& path) override {
    ScopedSpan span(tracer_, layer_, "stat");
    return inner_->Stat(path);
  }
  mux::Result<std::vector<mux::vfs::DirEntry>> ReadDir(
      const std::string& path) override {
    ScopedSpan span(tracer_, layer_, "readdir");
    return inner_->ReadDir(path);
  }

  mux::Result<uint64_t> Read(mux::vfs::FileHandle handle, uint64_t offset,
                             uint64_t length, uint8_t* out) override {
    ScopedSpan span(tracer_, layer_, "read");
    auto result = inner_->Read(handle, offset, length, out);
    span.set_bytes(result.ok() ? *result : 0);
    return result;
  }
  mux::Result<uint64_t> Write(mux::vfs::FileHandle handle, uint64_t offset,
                              const uint8_t* data, uint64_t length) override {
    ScopedSpan span(tracer_, layer_, "write");
    auto result = inner_->Write(handle, offset, data, length);
    span.set_bytes(result.ok() ? *result : 0);
    return result;
  }
  mux::Status Truncate(mux::vfs::FileHandle handle,
                       uint64_t new_size) override {
    ScopedSpan span(tracer_, layer_, "truncate");
    return inner_->Truncate(handle, new_size);
  }
  mux::Status Fsync(mux::vfs::FileHandle handle, bool data_only) override {
    ScopedSpan span(tracer_, layer_, "fsync");
    return inner_->Fsync(handle, data_only);
  }
  mux::Status Fallocate(mux::vfs::FileHandle handle, uint64_t offset,
                        uint64_t length, bool keep_size) override {
    ScopedSpan span(tracer_, layer_, "fallocate");
    return inner_->Fallocate(handle, offset, length, keep_size);
  }
  mux::Status PunchHole(mux::vfs::FileHandle handle, uint64_t offset,
                        uint64_t length) override {
    ScopedSpan span(tracer_, layer_, "punch_hole");
    return inner_->PunchHole(handle, offset, length);
  }
  mux::Result<mux::vfs::FileStat> FStat(mux::vfs::FileHandle handle) override {
    ScopedSpan span(tracer_, layer_, "fstat");
    return inner_->FStat(handle);
  }
  mux::Status SetAttr(mux::vfs::FileHandle handle,
                      const mux::vfs::AttrUpdate& update) override {
    ScopedSpan span(tracer_, layer_, "setattr");
    return inner_->SetAttr(handle, update);
  }
  mux::Result<mux::vfs::FsStats> StatFs() override {
    ScopedSpan span(tracer_, layer_, "statfs");
    return inner_->StatFs();
  }
  mux::Status Sync() override {
    ScopedSpan span(tracer_, layer_, "sync");
    return inner_->Sync();
  }

  mux::SimTime TimestampGranularityNs() const override {
    return inner_->TimestampGranularityNs();
  }
  mux::Result<mux::vfs::DaxMapping> DaxMap(mux::vfs::FileHandle handle,
                                           uint64_t offset,
                                           uint64_t length) override {
    return inner_->DaxMap(handle, offset, length);
  }
  mux::Status DaxUnmap(const mux::vfs::DaxMapping& mapping) override {
    return inner_->DaxUnmap(mapping);
  }
  bool SupportsDax() const override { return inner_->SupportsDax(); }
  void ChargeDax(uint64_t bytes, bool is_write) override {
    inner_->ChargeDax(bytes, is_write);
  }

 private:
  mux::vfs::FileSystem* const inner_;
  SpanTracer* const tracer_;
  const Layer layer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TIMING_FS_H_
