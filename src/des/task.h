// Coroutine task types for simulation processes.
//
// Task<T> is a lazily-started coroutine returning T. Awaiting it starts it
// and resumes the awaiter (by symmetric transfer) when it completes. Root
// processes are handed to Simulator::Spawn, which owns their frames.
//
// Frames come from per-thread free lists in 64-byte size classes: awaited
// child tasks (broadcasts, window emits, snapshots) create and destroy
// frames often, and a recycled block is far cheaper than a malloc/free
// round trip.
#ifndef SDPS_DES_TASK_H_
#define SDPS_DES_TASK_H_

#include <coroutine>
#include <cstddef>
#include <new>
#include <optional>
#include <utility>

#include <sanitizer/asan_interface.h>  // poisoning macros; no-ops without ASan

#include "common/check.h"

namespace sdps::des {

template <typename T = void>
class Task;

namespace internal {

/// Recycles coroutine frames of up to 1 KiB per thread. Frames larger than
/// that go straight to the global allocator; blocks freed on another thread
/// join that thread's lists, and each thread's lists are returned to the
/// global allocator when it exits.
class FramePool {
 public:
  static void* Allocate(size_t size) {
    const size_t c = SizeClass(size);
    if (c >= kClasses) return ::operator new(size);
    Block*& head = Lists().head[c];
    if (head == nullptr) return ::operator new(c * kGrain);
    Block* block = head;
    ASAN_UNPOISON_MEMORY_REGION(block, c * kGrain);
    head = block->next;
    return block;
  }

  static void Free(void* frame, size_t size) {
    const size_t c = SizeClass(size);
    if (c >= kClasses) {
      ::operator delete(frame);
      return;
    }
    Block*& head = Lists().head[c];
    head = new (frame) Block{head};
    // Under AddressSanitizer a parked block reads as freed memory, so a
    // stale coroutine handle still reports as a use after free.
    ASAN_POISON_MEMORY_REGION(frame, c * kGrain);
  }

 private:
  static constexpr size_t kGrain = 64;
  static constexpr size_t kClasses = 17;  // classes 1..16: 64 B .. 1 KiB

  struct Block {
    Block* next;
  };
  struct FreeLists {
    Block* head[kClasses] = {};
    ~FreeLists() {
      for (size_t c = 0; c < kClasses; ++c) {
        Block* block = head[c];
        while (block != nullptr) {
          ASAN_UNPOISON_MEMORY_REGION(block, c * kGrain);
          Block* next = block->next;
          ::operator delete(block);
          block = next;
        }
      }
    }
  };

  static size_t SizeClass(size_t size) { return (size + kGrain - 1) / kGrain; }
  static FreeLists& Lists() {
    thread_local FreeLists lists;
    return lists;
  }
};

/// Final awaiter: transfers control back to the awaiting coroutine if any;
/// otherwise parks at final suspend (the owner destroys the frame).
template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    auto& p = h.promise();
    if (p.continuation) return p.continuation;
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase {
  static void* operator new(size_t size) { return FramePool::Allocate(size); }
  static void operator delete(void* frame, size_t size) { FramePool::Free(frame, size); }
  std::coroutine_handle<> continuation = nullptr;
  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { std::terminate(); }
};

}  // namespace internal

/// A coroutine returning a value of type T.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    internal::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    void return_value(T v) { value.emplace(std::move(v)); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  Handle await_suspend(std::coroutine_handle<> awaiter) noexcept {
    h_.promise().continuation = awaiter;
    return h_;  // start the child now
  }
  T await_resume() {
    SDPS_CHECK(h_.promise().value.has_value()) << "Task finished without a value";
    return std::move(*h_.promise().value);
  }

  /// Releases frame ownership (used by Simulator::Spawn).
  std::coroutine_handle<> release() { return std::exchange(h_, {}); }

 private:
  explicit Task(Handle h) noexcept : h_(h) {}
  Handle h_;
};

/// A coroutine returning nothing.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    internal::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  Handle await_suspend(std::coroutine_handle<> awaiter) noexcept {
    h_.promise().continuation = awaiter;
    return h_;
  }
  void await_resume() const noexcept {}

  std::coroutine_handle<> release() { return std::exchange(h_, {}); }

 private:
  explicit Task(Handle h) noexcept : h_(h) {}
  Handle h_;
};

}  // namespace sdps::des

#endif  // SDPS_DES_TASK_H_
