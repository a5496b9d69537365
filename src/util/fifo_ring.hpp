// FIFO queue over a power-of-two ring that keeps its capacity.
//
// The engines' FIFO queues (retry delay lanes, session-end calendars, the
// session ledger, the sharded chosen-supplier lists) advance forever: each
// push at the back is eventually matched by a pop at the front. A
// std::deque frees every drained chunk and allocates a fresh one as the
// queue advances, so a queue that never grows past its peak still calls
// malloc once per few hundred bytes pushed. This ring grows by doubling to
// its peak length and then recycles its slots: at steady state a push or
// pop is an index mask and a move, and nothing is allocated.
//
// Slots are raw storage: an element lives from its push to its pop, so a
// pop releases whatever the element owns, and a slot no push has reached
// is never written (its page is never touched).
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace p2ps::util {

template <typename T>
class FifoRing {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growth moves every element; a throwing move would lose some");

 public:
  /// In-order read-only iteration, front to back.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return (*ring_)[index_]; }
    pointer operator->() const { return &(*ring_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++index_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.ring_ == b.ring_ && a.index_ == b.index_;
    }

   private:
    friend class FifoRing;
    const_iterator(const FifoRing* ring, std::size_t index)
        : ring_(ring), index_(index) {}

    const FifoRing* ring_ = nullptr;
    std::size_t index_ = 0;
  };

  FifoRing() = default;
  FifoRing(FifoRing&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  FifoRing& operator=(FifoRing&& other) noexcept {
    if (this != &other) {
      release();
      slots_ = std::exchange(other.slots_, nullptr);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  FifoRing(const FifoRing&) = delete;
  FifoRing& operator=(const FifoRing&) = delete;
  ~FifoRing() { release(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated: zero until the first push, then a power of two that
  /// only ever grows (to the smallest one holding the peak length).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    ::new (static_cast<void*>(slot(size_))) T(std::move(value));
    ++size_;
  }

  [[nodiscard]] T& front() {
    P2PS_REQUIRE(size_ > 0);
    return *slot(0);
  }
  [[nodiscard]] const T& front() const {
    P2PS_REQUIRE(size_ > 0);
    return *slot(0);
  }
  [[nodiscard]] const T& back() const {
    P2PS_REQUIRE(size_ > 0);
    return *slot(size_ - 1);
  }

  void pop_front() {
    P2PS_REQUIRE(size_ > 0);
    std::destroy_at(slot(0));
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// The i-th element from the front.
  [[nodiscard]] const T& operator[](std::size_t i) const {
    P2PS_REQUIRE(i < size_);
    return *slot(i);
  }

  [[nodiscard]] const_iterator begin() const { return const_iterator(this, 0); }
  [[nodiscard]] const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// The slot of the i-th element from the front (capacity_ is nonzero).
  [[nodiscard]] T* slot(std::size_t i) const {
    return slots_ + ((head_ + i) & (capacity_ - 1));
  }

  /// Doubles the storage, moving the live elements to its front in order.
  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    T* grown = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(grown + i)) T(std::move(*slot(i)));
      std::destroy_at(slot(i));
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = grown;
    capacity_ = capacity;
    head_ = 0;
  }

  void release() {
    if (slots_ == nullptr) return;
    for (std::size_t i = 0; i < size_; ++i) std::destroy_at(slot(i));
    std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = nullptr;
    capacity_ = 0;
    head_ = 0;
    size_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace p2ps::util
