// Per-thread record buffers merged only at export: the registry behind
// both Tracer (span records) and Logger (event records). Each recording
// thread appends to its own buffer under that buffer's own mutex, which
// only an export or clear ever contends; the shared registry mutex is
// taken once per thread, when its buffer is registered.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/sync.hpp"

namespace mpa::obs {

/// The thread's slot is a function-local thread_local of this class
/// template, so there must be one ThreadBuffers instance per Buffer
/// type (Tracer and Logger are process-wide singletons with distinct
/// buffer types).
template <typename Buffer>
class ThreadBuffers {
 public:
  /// Run fn(buffer, thread_index) on the calling thread's buffer under
  /// its lock, registering the buffer on the thread's first call.
  /// `thread_index` is the registration order, 1-based. The registry
  /// co-owns every buffer, so records outlive their thread (pool
  /// teardown) until the owner clears them.
  template <typename Fn>
  void with_local(Fn&& fn) EXCLUDES(mu_) {
    Slot& slot = local_slot();
    MutexLock lk(slot.mu);
    fn(slot.buffer, slot.index);
  }

  /// Run fn(buffer) on every registered buffer, in registration order,
  /// each under its own lock.
  template <typename Fn>
  void for_each(Fn&& fn) const EXCLUDES(mu_) {
    std::vector<std::shared_ptr<Slot>> slots;
    {
      MutexLock lk(mu_);
      slots = slots_;
    }
    for (const auto& s : slots) {
      MutexLock lk(s->mu);
      fn(s->buffer);
    }
  }

 private:
  struct Slot {
    Mutex mu;  ///< Uncontended except at export/clear time.
    Buffer buffer GUARDED_BY(mu);
    std::uint32_t index = 0;  ///< Set once, before the slot is shared.
  };

  /// Not a template, so each Buffer type has exactly one thread_local
  /// slot whatever callables with_local() is instantiated with.
  Slot& local_slot() EXCLUDES(mu_) {
    thread_local std::shared_ptr<Slot> slot;
    if (slot == nullptr) {
      slot = std::make_shared<Slot>();
      MutexLock lk(mu_);
      slot->index = static_cast<std::uint32_t>(slots_.size()) + 1;
      slots_.push_back(slot);
    }
    return *slot;
  }

  mutable Mutex mu_;  ///< Guards slots_ (registration + export).
  std::vector<std::shared_ptr<Slot>> slots_ GUARDED_BY(mu_);
};

}  // namespace mpa::obs
