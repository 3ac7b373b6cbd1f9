#ifndef GTADOC_GPU_DEVICE_H_
#define GTADOC_GPU_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "gpu/platform.h"

namespace gtadoc {
namespace gpu {

class Device;

/// \brief Per-logical-thread kernel context.
///
/// A kernel body receives one ThreadCtx per logical thread (the CUDA
/// `blockIdx * blockDim + threadIdx` flattened to `tid`). Kernels *charge*
/// the abstract operations they perform; the device folds charges into the
/// cost model to advance the simulated clock. Charges are the contract
/// between algorithm and simulator: roughly one op per memory access or
/// arithmetic step, and ChargeAtomic for each atomic RMW.
class ThreadCtx {
 public:
  ThreadCtx(uint32_t tid, uint32_t num_threads)
      : tid_(tid), num_threads_(num_threads) {}

  uint32_t tid() const { return tid_; }
  uint32_t num_threads() const { return num_threads_; }

  void Charge(uint64_t ops) { ops_ += ops; }
  void ChargeAtomic(uint64_t n = 1) {
    atomics_ += n;
    ops_ += n;
  }
  /// An atomic RMW on an address every thread hammers (e.g. one global lock
  /// word): the hardware serializes these, so they cost far more than
  /// distributed atomics.
  void ChargeSerializedAtomic(uint64_t n = 1) {
    serialized_atomics_ += n;
    ops_ += n;
  }

  uint64_t ops() const { return ops_; }
  uint64_t atomics() const { return atomics_; }
  uint64_t serialized_atomics() const { return serialized_atomics_; }

 private:
  uint32_t tid_;
  uint32_t num_threads_;
  uint64_t ops_ = 0;
  uint64_t atomics_ = 0;
  uint64_t serialized_atomics_ = 0;
};

/// Aggregated cost of one kernel launch.
struct KernelCost {
  uint64_t total_ops = 0;
  uint64_t max_thread_ops = 0;  ///< critical path (workload imbalance)
  uint64_t atomic_ops = 0;
  uint64_t serialized_atomic_ops = 0;  ///< same-address RMWs (lock words)
  uint32_t num_threads = 0;
};

/// Cumulative execution statistics of a device.
struct DeviceStats {
  uint64_t kernels_launched = 0;
  uint64_t total_ops = 0;
  uint64_t total_atomics = 0;
  uint64_t h2d_bytes = 0;
  uint64_t d2h_bytes = 0;
  uint64_t device_allocs = 0;  ///< charged allocation calls (ChargeDeviceAlloc)
  size_t peak_device_bytes = 0;
  /// Extra kernel rounds forced by busy try-locks (Figure 8's stop-flag
  /// relaunches), and the total items that had to be re-attempted. Smaller
  /// tables sized from kernel hints and selective kernels' pruned insert
  /// volumes show up here.
  uint64_t retry_rounds = 0;
  uint64_t lock_retries = 0;
};

/// \brief Virtual GPU: functional kernel execution + simulated clock.
///
/// Kernels run on a host thread pool (each worker executes a contiguous chunk
/// of logical threads) and must be *round-safe*: never block, communicate
/// only through atomics and try-locks, and defer to the next host-driven
/// round when a dependency is not ready — exactly the mask/stop-flag protocol
/// of Algorithms 1 and 2 and Figures 7 and 8. Under that contract the results
/// are schedule-independent, so the simulation is faithful to any CUDA
/// interleaving.
///
/// Simulated kernel time:
///   launch_overhead
///   + max(total_ops / device_ops_per_sec,
///         max_thread_ops / thread_ops_per_sec)   -- imbalance critical path
///   + atomic_ops / atomic_ops_per_sec            -- RMW serialization
///
/// Memory transfers advance the clock by bytes / pcie_bandwidth.
class Device {
 public:
  /// `host_workers` == 0 selects hardware concurrency. Use 1 in tests that
  /// need a fully deterministic interleaving.
  explicit Device(const GpuSpec& spec, size_t host_workers = 0);

  const GpuSpec& spec() const { return spec_; }

  /// Launches `num_threads` logical threads executing `kernel`.
  /// Returns this launch's cost (also folded into the running clock).
  KernelCost Launch(const char* name, uint32_t num_threads,
                    const std::function<void(ThreadCtx&)>& kernel);

  /// Simulated PCIe transfers.
  void CopyHostToDevice(size_t bytes);
  void CopyDeviceToHost(size_t bytes);
  /// Seconds one PCIe transfer of `bytes` takes under this spec.
  double TransferSeconds(size_t bytes) const {
    return static_cast<double>(bytes) / (spec_.pcie_bandwidth_gbps * 1e9);
  }

  /// Charges `count` device allocation calls (cudaMalloc-style latency).
  /// Structures that rebuild per run pay this; the batch reuse paths
  /// (MemoryPool::EnsureCapacity, GrammarArena) skip it when the
  /// existing capacity already fits.
  void ChargeDeviceAlloc(uint64_t count = 1);
  /// Seconds `count` allocation calls cost under this spec.
  double AllocSeconds(uint64_t count) const {
    return static_cast<double>(count) * spec_.device_alloc_us * 1e-6;
  }

  /// Simulated elapsed seconds since construction or the last ResetClock.
  double SimSeconds() const { return sim_seconds_; }
  void ResetClock() { sim_seconds_ = 0; }
  /// Adds host-side time (e.g. a CPU-side merge between kernels).
  void AdvanceClock(double seconds) { sim_seconds_ += seconds; }

  const DeviceStats& stats() const { return stats_; }

  /// Records one retry round of the host-driven protocol (`items` deferred
  /// inserts re-attempted next round). Called by gpu::RoundLoop.
  void RecordRetryRound(uint64_t items) {
    ++stats_.retry_rounds;
    stats_.lock_retries += items;
  }

  /// Device memory accounting (used by DeviceBuffer / MemoryPool).
  void RegisterAllocation(size_t bytes);
  void ReleaseAllocation(size_t bytes);
  size_t device_bytes_in_use() const { return bytes_in_use_; }

 private:
  GpuSpec spec_;
  /// Kernel workers; null for one host worker, whose kernels run inline on
  /// the launching thread (the same single chunk, without a thread per
  /// device).
  std::unique_ptr<ThreadPool> pool_;
  double sim_seconds_ = 0;
  DeviceStats stats_;
  size_t bytes_in_use_ = 0;
};

/// \brief Typed device allocation with byte accounting on its Device.
///
/// Functionally this is host memory; the tracker enforces the simulated
/// device capacity so out-of-memory behaviour can be tested.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  /// Value-initializes `count` elements (atomics become zero). Works for
  /// non-copyable T such as std::atomic.
  DeviceBuffer(Device* device, size_t count) : device_(device), data_(count) {
    device_->RegisterAllocation(count * sizeof(T));
  }
  DeviceBuffer(Device* device, size_t count, const T& init)
      : device_(device), data_(count, init) {
    device_->RegisterAllocation(count * sizeof(T));
  }
  ~DeviceBuffer() { Release(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& o) noexcept { *this = std::move(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      Release();
      device_ = o.device_;
      data_ = std::move(o.data_);
      o.device_ = nullptr;
      o.data_.clear();
    }
    return *this;
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  void Fill(const T& v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  void Release() {
    if (device_ != nullptr) {
      device_->ReleaseAllocation(data_.size() * sizeof(T));
      device_ = nullptr;
    }
  }
  Device* device_ = nullptr;
  std::vector<T> data_;
};

}  // namespace gpu
}  // namespace gtadoc

#endif  // GTADOC_GPU_DEVICE_H_
