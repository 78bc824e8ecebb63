#pragma once
// Bounded multi-producer / multi-consumer queue backing the embedding
// server's request queue (callers produce requests, the worker pool
// consumes them). Blocking push/pop plus a non-blocking try_push, with
// a close() that wakes every waiter, so a drain ends cleanly: producers
// see push() fail, consumers see pop() return nullopt once the queue is
// empty.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace seqge {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push: returns false immediately when the queue is
  /// full or closed, leaving `item` untouched. This is the admission-
  /// control path — the serving front-end sheds load through it instead
  /// of parking an event-loop thread; in-process callers keep the
  /// blocking push() below (backpressure is the correct behavior for a
  /// producer that owns its thread).
  [[nodiscard]] bool try_push(T&& item) {
    {
      std::lock_guard lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while full. Returns false (item dropped) if the queue was
  /// closed before space became available.
  bool push(T&& item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed *and* drained —
  /// items pushed before close() are still delivered.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Idempotent. Wakes all blocked producers and consumers.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_, not_empty_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace seqge
