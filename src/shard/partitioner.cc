#include "shard/partitioner.h"

namespace pigeonring::shard {

std::vector<std::vector<int>> Partitioner::Partition(int num_records) const {
  std::vector<std::vector<int>> owned(static_cast<size_t>(shards_));
  for (auto& o : owned) {
    o.reserve(static_cast<size_t>(num_records / shards_ + 1));
  }
  for (int g = 0; g < num_records; ++g) {
    owned[static_cast<size_t>(ShardOf(g))].push_back(g);
  }
  return owned;
}

void Partitioner::Encode(storage::ByteWriter& w) const {
  w.U32(0);  // placement mode: round-robin, the only one
  w.U32(static_cast<uint32_t>(shards_));
}

bool Partitioner::Decode(storage::ByteReader& r) {
  const uint32_t mode = r.U32();
  const uint32_t shards = r.U32();
  if (!r.AtEnd()) return false;
  if (mode != 0) return false;
  if (shards < 2 || shards > static_cast<uint32_t>(kMaxShards)) return false;
  shards_ = static_cast<int>(shards);
  return true;
}

}  // namespace pigeonring::shard
