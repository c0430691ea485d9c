#include "hpcqc/mqss/structure_cache.hpp"

#include "hpcqc/common/error.hpp"

namespace hpcqc::mqss {

StructureCache::StructureCache(std::size_t capacity) : capacity_(capacity) {
  expects(capacity > 0, "StructureCache: capacity must be positive");
}

void StructureCache::evict_excess_locked() {
  while (entries_.size() > capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
  stats_.size = entries_.size();
}

StructureCache::Lookup StructureCache::get_or_compile(
    std::uint64_t key, const Factory& factory) {
  std::promise<Value> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      ++stats_.hits;
      return {it->second.value, true};
    }
    const auto flight = inflight_.find(key);
    if (flight != inflight_.end()) {
      ++stats_.misses;
      ++stats_.single_flight_joins;
      std::shared_future<Value> future = flight->second;
      lock.unlock();
      return {future.get(), false};  // rethrows the compiler's exception
    }
    ++stats_.misses;
    inflight_.emplace(key, promise.get_future().share());
  }

  Value value;
  try {
    value = factory();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    lru_.push_front(key);
    entries_[key] = Entry{value, lru_.begin()};
    evict_excess_locked();
  }
  promise.set_value(value);
  return {std::move(value), false};
}

void StructureCache::set_capacity(std::size_t capacity) {
  expects(capacity > 0, "StructureCache: capacity must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  evict_excess_locked();
}

std::size_t StructureCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void StructureCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_.size = 0;
}

StructureCacheStats StructureCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace hpcqc::mqss
