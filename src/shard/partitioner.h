// shard::Partitioner — the id ↔ (shard, local id) mapping of a sharded
// collection.
//
// The sharded executor (see shard/scatter.h and docs/ARCHITECTURE.md
// "Sharded execution") partitions a collection of N records into S
// disjoint shards. Every shard builds its searcher over its own records
// renumbered 0..n_s-1 (local ids), and the coordinator remaps each
// shard's hits back to the canonical global ids before merging — so the
// sharded answer is byte-identical to the unsharded one.
//
// Placement is round-robin: global id g lives on shard g % S as local id
// g / S. Deterministic, perfectly balanced (shard sizes differ by at most
// one), and order-preserving within a shard: local ids ascend with global
// ids, which keeps per-shard posting lists id-ascending when they are
// filtered out of the full index (the invariant every domain's
// FromBuckets/FromBuilt path relies on).
//
// The mapping is a pure function of the shard count, so the persisted
// shard map (storage section kShardMap) is a placement-mode word, always
// 0 (round-robin; kept so saved files keep their bytes), and the count.

#ifndef PIGEONRING_SHARD_PARTITIONER_H_
#define PIGEONRING_SHARD_PARTITIONER_H_

#include <vector>

#include "storage/bytes.h"

namespace pigeonring::shard {

/// The serving-time shard-count ceiling (api::IndexSpec::Validate enforces
/// it). Generous for one process; a follow-up putting net::Client behind
/// the coordinator's shard interface would revisit it.
inline constexpr int kMaxShards = 64;

class Partitioner {
 public:
  Partitioner() = default;
  explicit Partitioner(int shards) : shards_(shards) {}

  int shards() const { return shards_; }

  /// The shard owning global id `g`.
  int ShardOf(int g) const { return g % shards_; }

  /// Per-shard global-id lists for a collection of `num_records` records,
  /// in ascending global-id order (so local id l on shard s is
  /// `result[s][l]`). This is the one canonical enumeration: every split
  /// and every remap derives from it.
  std::vector<std::vector<int>> Partition(int num_records) const;

  /// Serialized form for the storage layer's kShardMap section.
  void Encode(storage::ByteWriter& w) const;
  /// False on malformed bytes (undecodable, a mode word other than 0,
  /// shards out of [2, kMaxShards]).
  bool Decode(storage::ByteReader& r);

  friend bool operator==(const Partitioner&, const Partitioner&) = default;

 private:
  int shards_ = 1;
};

}  // namespace pigeonring::shard

#endif  // PIGEONRING_SHARD_PARTITIONER_H_
