#include "dassa/io/chunk_cache.hpp"

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"

namespace dassa::io {

namespace {

std::size_t payload_bytes(const ChunkData& data) {
  return data ? data->size() * sizeof(double) : 0;
}

}  // namespace

ChunkCache::ChunkCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

ChunkCache::Shard& ChunkCache::shard_for(const ChunkKey& key) {
  return shards_[KeyHash{}(key) % kShards];
}

ChunkData ChunkCache::get(const ChunkKey& key) {
  Shard& shard = shard_for(key);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    static Counter& misses =
        global_counters().counter(counters::kIoCacheMisses);
    misses.add();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  static Counter& hits = global_counters().counter(counters::kIoCacheHits);
  hits.add();
  return it->second->data;
}

void ChunkCache::put(const ChunkKey& key, ChunkData data) {
  DASSA_CHECK(data != nullptr, "cannot cache a null chunk");
  const std::size_t slice = budget() / kShards;
  const std::size_t nbytes = payload_bytes(data);
  if (nbytes == 0 || nbytes > slice) return;  // can never fit

  Shard& shard = shard_for(key);
  {
    MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: same key decoded twice by racing readers. Keep the
      // newcomer (identical content) and fix the accounting.
      shard.bytes -= it->second->bytes;
      total_bytes_.fetch_sub(it->second->bytes, std::memory_order_relaxed);
      it->second->data = std::move(data);
      it->second->bytes = nbytes;
      shard.bytes += nbytes;
      total_bytes_.fetch_add(nbytes, std::memory_order_relaxed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(data), nbytes});
      shard.index[key] = shard.lru.begin();
      shard.bytes += nbytes;
      total_bytes_.fetch_add(nbytes, std::memory_order_relaxed);
      static Counter& inserts =
          global_counters().counter(counters::kIoCacheInserts);
      inserts.add();
    }
    evict_to_fit(shard, slice);
  }
  static Counter& peak = global_counters().counter(counters::kIoCachePeakBytes);
  peak.high_water(bytes());
}

void ChunkCache::evict_to_fit(Shard& shard, std::size_t slice) {
  while (shard.bytes > slice && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    total_bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    static Counter& evictions =
        global_counters().counter(counters::kIoCacheEvictions);
    evictions.add();
  }
}

void ChunkCache::erase_file(std::uint64_t file_id) {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.file_id == file_id) {
        shard.bytes -= it->bytes;
        total_bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ChunkCache::clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const Entry& entry : shard.lru) {
      total_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    }
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

void ChunkCache::set_budget(std::size_t budget_bytes) {
  budget_.store(budget_bytes, std::memory_order_relaxed);
  const std::size_t slice = budget_bytes / kShards;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    evict_to_fit(shard, slice);
  }
}

std::size_t ChunkCache::entries() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.index.size();
  }
  return total;
}

ChunkCache& ChunkCache::global() {
  static ChunkCache cache(kDefaultBudget);
  static const bool gauges_registered = [] {
    global_metrics().register_gauge("io.cache.bytes", [] {
      return static_cast<double>(ChunkCache::global().bytes());
    });
    global_metrics().register_gauge("io.cache.entries", [] {
      return static_cast<double>(ChunkCache::global().entries());
    });
    return true;
  }();
  (void)gauges_registered;
  return cache;
}

std::uint64_t ChunkCache::next_file_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace dassa::io
