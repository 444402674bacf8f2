// pigeonring::api::Writer — the single mutation handle over an open Db.
//
// The pigeonring indexes are built for frozen collections; Writer makes
// the *database* mutable without giving up that property. Mutations go
// log-then-compact:
//
//  * Insert / Remove append to a small immutable delta (a brute-force
//    side table of canonical records plus sorted removed-id lists) that
//    every Session created afterwards transparently merges into Search /
//    SearchBatch / SelfJoin results. Sessions created earlier keep their
//    frozen view — readers never block and never see a torn update.
//  * When the delta reaches the spec's delta_compact_threshold, a
//    background job on the current epoch's executor rebuilds the full
//    searcher over base + delta; the finished rebuild is published as a
//    new epoch (fresh DbState, fresh executor) at the next user-thread
//    touch of the database. Explicit Compact() does the same
//    synchronously.
//
//   auto writer = db.NewWriter();             // StatusOr<Writer>
//   auto id = writer->Insert(record);         // StatusOr<int>
//   writer->Remove(*id);                      // Status
//   writer->Compact();                        // publish a fresh epoch
//
// Id contract: an insert is assigned the next id after the epoch's
// current maximum, and ids are stable *within* an epoch (removing a
// record does not renumber its neighbors; the id simply stops matching).
// Compaction renumbers: survivors are packed in id order (base survivors
// first, then live inserts in log order). Capture ids per epoch; do not
// hold them across Compact().
//
// Threading: a Writer is move-only and single-threaded — one mutating
// caller at a time, by design (single-writer, many-reader). It may run
// concurrently with any number of Sessions and Db handles. Destroying the
// Writer waits for an in-flight background compaction to finish (readers
// keep answering meanwhile) and publishes it.

#ifndef PIGEONRING_API_WRITER_H_
#define PIGEONRING_API_WRITER_H_

#include <memory>

#include "api/session.h"
#include "api/spec.h"
#include "common/status.h"

namespace pigeonring::api {

class Db;

namespace internal {
struct DbHub;
}  // namespace internal

class Writer {
 public:
  Writer(Writer&&) noexcept;
  Writer& operator=(Writer&&) noexcept;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer();

  /// Current merged record count (base epoch + pending inserts), like
  /// Db::num_records.
  int num_records() const;

  /// Pending mutation count (inserts + removals) awaiting compaction.
  int64_t num_pending() const;

  /// Validates `record` against the index's domain and shape, appends it
  /// to the delta, and returns its assigned id. Sessions created from now
  /// on will match it. kInvalidArgument for domain/shape mismatches (e.g.
  /// wrong Hamming dimensionality, or a string of the wrong length when
  /// the edit fast path is on). If a background compaction failed, its
  /// status is surfaced (once) here instead.
  StatusOr<int> Insert(const Query& record);

  /// Removes record `id` from all future Sessions' results. Typed no-op:
  /// kNotFound if `id` is outside the current epoch's id space or was
  /// already removed — the database is unchanged either way.
  Status Remove(int id);

  /// Synchronously folds every pending mutation into a fresh epoch (a
  /// no-op if there are none). Waits for an in-flight background
  /// compaction first, then rebuilds inline on this thread. `options` is
  /// validated exactly like the query paths' RunOptions (the identical
  /// error text is pinned in api_test). Returns the rebuild's error, if
  /// any, with the delta left intact.
  Status Compact(const RunOptions& options = {});

 private:
  friend class Db;
  Writer(std::shared_ptr<internal::DbHub> hub, IndexSpec spec);

  /// Waits out any background compaction, publishes it, and releases the
  /// single-writer slot. Used by the destructor and move-assignment.
  void Release();

  std::shared_ptr<internal::DbHub> hub_;  // null after move-from
  IndexSpec spec_;
};

}  // namespace pigeonring::api

#endif  // PIGEONRING_API_WRITER_H_
