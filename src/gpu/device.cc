#include "gpu/device.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"

namespace gtadoc {
namespace gpu {

Device::Device(const GpuSpec& spec, size_t host_workers) : spec_(spec) {
  if (host_workers != 1) pool_ = std::make_unique<ThreadPool>(host_workers);
}

KernelCost Device::Launch(const char* name, uint32_t num_threads,
                          const std::function<void(ThreadCtx&)>& kernel) {
  (void)name;
  KernelCost cost;
  cost.num_threads = num_threads;
  if (num_threads > 0) {
    std::mutex agg_mu;
    const auto run_chunk = [&](size_t lo, size_t hi) {
      uint64_t total = 0, max_ops = 0, atomics = 0, serialized = 0;
      for (size_t t = lo; t < hi; ++t) {
        ThreadCtx ctx(static_cast<uint32_t>(t), num_threads);
        kernel(ctx);
        total += ctx.ops();
        atomics += ctx.atomics();
        serialized += ctx.serialized_atomics();
        max_ops = std::max(max_ops, ctx.ops());
      }
      std::lock_guard<std::mutex> lock(agg_mu);
      cost.total_ops += total;
      cost.atomic_ops += atomics;
      cost.serialized_atomic_ops += serialized;
      cost.max_thread_ops = std::max(cost.max_thread_ops, max_ops);
    };
    if (pool_ == nullptr) {
      run_chunk(0, num_threads);
    } else {
      pool_->ParallelFor(0, num_threads, run_chunk);
    }
  }

  double seconds = spec_.kernel_launch_us * 1e-6;
  const double throughput_term =
      static_cast<double>(cost.total_ops) / spec_.device_ops_per_sec();
  const double critical_path_term =
      static_cast<double>(cost.max_thread_ops) / spec_.thread_ops_per_sec();
  seconds += std::max(throughput_term, critical_path_term);
  seconds += static_cast<double>(cost.atomic_ops) / spec_.atomic_ops_per_sec;
  seconds += static_cast<double>(cost.serialized_atomic_ops) /
             spec_.same_address_atomic_ops_per_sec;
  sim_seconds_ += seconds;

  ++stats_.kernels_launched;
  stats_.total_ops += cost.total_ops;
  stats_.total_atomics += cost.atomic_ops;
  return cost;
}

void Device::CopyHostToDevice(size_t bytes) {
  stats_.h2d_bytes += bytes;
  sim_seconds_ += TransferSeconds(bytes);
}

void Device::CopyDeviceToHost(size_t bytes) {
  stats_.d2h_bytes += bytes;
  sim_seconds_ += TransferSeconds(bytes);
}

void Device::ChargeDeviceAlloc(uint64_t count) {
  stats_.device_allocs += count;
  sim_seconds_ += AllocSeconds(count);
}

void Device::RegisterAllocation(size_t bytes) {
  bytes_in_use_ += bytes;
  stats_.peak_device_bytes = std::max(stats_.peak_device_bytes, bytes_in_use_);
  if (spec_.memory_bytes != 0 && bytes_in_use_ > spec_.memory_bytes) {
    GTADOC_LOG(Warn) << "simulated device memory exceeded: "
                     << bytes_in_use_ << " > " << spec_.memory_bytes;
  }
}

void Device::ReleaseAllocation(size_t bytes) {
  GTADOC_CHECK(bytes <= bytes_in_use_);
  bytes_in_use_ -= bytes;
}

}  // namespace gpu
}  // namespace gtadoc
