// Bounded blocking request queue between the serving front's I/O loop and
// its fixed worker pool (the loop produces; the pool's workers are many
// consumers). Any number of producers is safe.
//
// The queue is deliberately a mutex + two condvars rather than a lock-free
// ring: occupancy is structurally tiny (the front schedules at most ONE
// item per connection, so size() never exceeds the open-connection count),
// contention is a handful of threads, and the simple form is trivially
// ThreadSanitizer-clean. The capacity bound is a memory-safety backstop,
// not a flow-control mechanism — per-connection flow control happens
// upstream (the I/O loop stops *reading* a connection at its pipelining
// limit, so unread bytes stay in the kernel socket buffer instead of
// becoming queued work).
//
// close() wakes every waiter, fails all future pushes, and hands the items
// still queued back to the caller: it is only called on shutdown, when
// pending requests are work on behalf of clients the process is about to
// hang up on anyway — but the caller may still need the items to unwind
// per-item bookkeeping (the serving front clears each item's connection
// in-flight flag so its close sweep can run).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace aflow::util {

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Blocks while the queue is full; returns false (dropping the item)
  /// once the queue is closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed; nullopt
  /// means closed (workers exit on it).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (closed_) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Fails future pushes, wakes every waiter, and returns the items that
  /// were still queued (never handed to a consumer) so the caller can
  /// unwind whatever state was pinned on their completion.
  std::deque<T> close() {
    std::deque<T> orphaned;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      orphaned.swap(items_);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    return orphaned;
  }

  bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

} // namespace aflow::util
