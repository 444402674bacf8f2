// Epoch-stamped per-record scratch: the one per-query state the domain
// searchers keep.
//
// A filter touches a few postings per query but must remember, per record,
// whether this query has touched that record yet (and, in some domains, a
// few bytes of per-record filter state). One stamp per record answers that
// in O(1) without clearing O(records) memory between queries: every query
// opens a fresh epoch, and a record counts as touched iff its stamp equals
// the current epoch. Companion per-record arrays are reset by the searcher
// on a record's first touch, so they never need clearing either.
//
// Every searcher type keeps its scratch in one PerThread<Scratch>()
// instance, fetched once per Search, so Search is const and any number of
// threads share one searcher. A thread's scratch grows to the largest
// collection that thread has probed and keeps that size until the thread
// exits; it is sized by records, never by queries.
//
// The epoch is 32 bits. When it wraps, every stamp is zeroed and counting
// restarts at 1; without that, a stamp written 2^32 queries earlier would
// read as "touched this query" and its stale companion state (say, a
// "candidate already decided" flag) would drop a true result.

#ifndef PIGEONRING_COMMON_EPOCH_STAMPS_H_
#define PIGEONRING_COMMON_EPOCH_STAMPS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pigeonring {

/// Grows `array` to at least `n` entries; never shrinks it.
template <typename T>
void GrowTo(std::vector<T>& array, size_t n) {
  if (array.size() < n) array.resize(n);
}

class EpochStamps {
 public:
  EpochStamps() = default;
  /// Starts counting at `epoch` (tests use it to reach the wrap quickly).
  explicit EpochStamps(uint32_t epoch) : epoch_(epoch) {}

  /// Opens a new query over records [0, n): grows the stamps, and each
  /// companion per-record array in `per_record`, to at least n entries.
  template <typename... Arrays>
  void NextEpoch(size_t n, Arrays&... per_record) {
    GrowTo(stamps_, n);
    (GrowTo(per_record, n), ...);
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Stamps `id`; true iff this is its first touch in the current epoch.
  bool Touch(int id) {
    uint32_t& stamp = stamps_[static_cast<size_t>(id)];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    return true;
  }

 private:
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamps_;
};

/// This thread's instance of `Scratch`: one per (thread, searcher type),
/// alive until the thread exits. `Scratch` must be a type private to one
/// searcher, so two searcher types never share an instance, and a Search
/// must not run another Search of its own type while it holds the
/// scratch (the edit fast path may call Hamming searches: another type).
template <typename Scratch>
Scratch& PerThread() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace pigeonring

#endif  // PIGEONRING_COMMON_EPOCH_STAMPS_H_
