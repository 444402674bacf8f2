// FlatBitTable: contiguous, cache-aligned storage for fixed-width binary
// vectors.
//
// The verification hot path of Hamming search touches one row per surviving
// candidate. Storing each record as its own BitVector means a heap
// allocation per record and two dependent loads (object -> vector buffer)
// per touch; FlatBitTable instead lays all rows out row-major in one
// 64-byte-aligned buffer:
//
//   row stride = words_per_row rounded up to the next power of two up to 8
//                words, then to a multiple of 8 words (64 bytes),
//   row i      = data[i * stride .. i * stride + words_per_row),
//   padding    = always zero (so whole-stride scans see no phantom bits).
//
// The stride rule makes every row either fill whole cache lines (rows of
// 8+ words start on a line boundary) or nest entirely inside one line
// (1/2/4-word strides divide 64 bytes), so no row straddles a line it
// doesn't need — padding every row to a full line would multiply memory
// traffic by 8x for 64-bit rows and make small-dimension verification
// bandwidth-bound. Neighboring rows are adjacent, so the kernels in
// kernels.h can prefetch rows ahead of the verification cursor. The table
// is immutable once built; searchers share it behind shared_ptr<const>.

#ifndef PIGEONRING_KERNELS_FLAT_BIT_TABLE_H_
#define PIGEONRING_KERNELS_FLAT_BIT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/bitvector.h"
#include "common/logging.h"

namespace pigeonring::kernels {

class FlatBitTable {
 public:
  /// Buffer alignment in bytes; rows of kAlignmentWords+ words keep it.
  static constexpr int kAlignmentBytes = 64;
  static constexpr int kAlignmentWords = kAlignmentBytes / 8;

  /// The stride rule above, exposed for tests.
  static int StrideWordsFor(int words_per_row);

  /// An empty table (0 rows, 0 dimensions).
  FlatBitTable() = default;

  /// An all-zero table of `num_rows` rows of `dimensions` bits each.
  FlatBitTable(int num_rows, int dimensions);

  /// Packs `objects` (all of equal dimensionality) into a flat table.
  static FlatBitTable FromVectors(const std::vector<BitVector>& objects);

  FlatBitTable(const FlatBitTable& other);
  FlatBitTable& operator=(const FlatBitTable& other);
  FlatBitTable(FlatBitTable&&) noexcept = default;
  FlatBitTable& operator=(FlatBitTable&&) noexcept = default;

  int num_rows() const { return num_rows_; }
  int dimensions() const { return dimensions_; }
  /// Words holding payload bits per row: ceil(dimensions / 64).
  int words_per_row() const { return words_per_row_; }
  /// Allocated words per row: >= words_per_row(), a power of two up to 8,
  /// then a multiple of kAlignmentWords.
  int stride_words() const { return stride_words_; }

  /// Row `i` as a word array of stride_words() words; the words past
  /// words_per_row() are zero.
  const uint64_t* row(int i) const {
    PR_DCHECK(i >= 0 && i < num_rows_);
    return data_.get() + static_cast<size_t>(i) * stride_words_;
  }

  /// Overwrites row `i` with `v`, which must match dimensions().
  void SetRow(int i, const BitVector& v);

  /// Copies row `i` back out as a BitVector (tests, debugging).
  BitVector RowAsBitVector(int i) const;

 private:
  struct AlignedDeleter {
    void operator()(uint64_t* p) const {
      ::operator delete[](p, std::align_val_t{kAlignmentBytes});
    }
  };
  using Buffer = std::unique_ptr<uint64_t[], AlignedDeleter>;

  static Buffer AllocateZeroed(size_t total_words);

  int num_rows_ = 0;
  int dimensions_ = 0;
  int words_per_row_ = 0;
  int stride_words_ = 0;
  Buffer data_;
};

}  // namespace pigeonring::kernels

#endif  // PIGEONRING_KERNELS_FLAT_BIT_TABLE_H_
