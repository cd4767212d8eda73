// Small-buffer-optimized event callback for the DES kernel.
//
// The simulator's fn-event hot path used to wrap every callback in a
// std::function, which heap-allocates for captures beyond two pointers and
// drags a full vtable dispatch through every heap sift. EventFn stores
// trivially-copyable callables up to kInlineBytes directly inside the
// event (covering every built-in scheduling site: they capture a handful
// of pointers and integers), falls back to the heap only for large or
// non-trivially-copyable callables.
#ifndef SDPS_DES_EVENT_FN_H_
#define SDPS_DES_EVENT_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sdps::des {

class EventFn {
 public:
  /// Inline capture capacity. Sized so a scheduler node (EventFn plus a
  /// list link) is exactly one 64-byte cache line while covering every
  /// scheduling site in the tree (the largest capture is three 8-byte
  /// words).
  static constexpr size_t kInlineBytes = 24;

  EventFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      // Trivially copyable: no destroy needed.
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof(heap));
      invoke_ = [](void* p) {
        Fn* fn;
        std::memcpy(&fn, p, sizeof(fn));
        (*fn)();
      };
      destroy_ = [](void* p) {
        Fn* fn;
        std::memcpy(&fn, p, sizeof(fn));
        delete fn;
      };
    }
  }

  // Built in place in its scheduler node and run there: never copied or
  // moved.
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { invoke_(buf_); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// Destroys the callable, leaving the EventFn empty.
  void Reset() noexcept {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  using RawFn = void (*)(void*);

  RawFn invoke_ = nullptr;
  RawFn destroy_ = nullptr;  // null for inline trivially-copyable captures
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace sdps::des

#endif  // SDPS_DES_EVENT_FN_H_
