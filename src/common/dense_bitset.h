#ifndef SGP_COMMON_DENSE_BITSET_H_
#define SGP_COMMON_DENSE_BITSET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace sgp {

/// Word-packed bit vector. The GraphPartitioners-style `dense_bitset`
/// idiom: membership queries become single word loads, and a scan over a
/// block of 64 candidates touches one cache word instead of 64 probes.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(uint64_t bits) { Resize(bits); }

  /// Grows or shrinks to `bits`; newly exposed bits are zero.
  void Resize(uint64_t bits) {
    bits_ = bits;
    words_.resize((bits + 63) / 64, 0);
  }

  uint64_t size() const { return bits_; }
  uint64_t num_words() const { return words_.size(); }
  const uint64_t* words() const { return words_.data(); }

  bool Test(uint64_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(uint64_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(uint64_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  uint64_t Popcount() const {
    uint64_t n = 0;
    for (uint64_t w : words_) n += static_cast<uint64_t>(std::popcount(w));
    return n;
  }

  uint64_t MemoryBytes() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  uint64_t bits_ = 0;
  std::vector<uint64_t> words_;
};

/// Row-major bit matrix: `rows` rows of `cols` bits each. This is the
/// storage of the replica sets (ReplicaState): one row per vertex, one bit
/// per partition, so a k-way scoring loop reads ceil(k/64) words per
/// endpoint instead of performing k set probes.
///
/// Cache-blocked layout: the base pointer is 64-byte aligned and rows are
/// placed at a stride rounded up from ceil(cols/64) words to a power of
/// two (≤ 8 words) or a multiple of 8 words beyond that. Every row start
/// therefore lands at a 64-byte-line-friendly offset and a row of ≤ 512
/// bits never straddles a cache line — one line fill serves the whole
/// membership sweep of an endpoint, and the scoring loops' row prefetches
/// pull exactly the lines they will read. `words_per_row()` stays the
/// logical ceil(cols/64); padding words past it are always zero.
///
/// Storage holds a row capacity beyond the logical `rows()`; rows past
/// `rows()` are kept zero, so growing into them needs no clearing.
class BitMatrix {
 public:
  BitMatrix() = default;

  /// rows × cols with every bit cleared; the row capacity is exactly
  /// `rows`.
  BitMatrix(uint64_t rows, uint32_t cols)
      : rows_(rows),
        row_capacity_(rows),
        words_per_row_((static_cast<uint64_t>(cols) + 63) / 64),
        row_stride_(RowStride(words_per_row_)) {
    AllocateZeroed(rows * row_stride_);
  }

  /// Grows the row count (column width fixed); new rows are zero and
  /// existing rows keep their bits. A request beyond the capacity at least
  /// doubles it and copies only the live rows, so growing an id space one
  /// row at a time costs amortized O(1) row copies per row.
  void EnsureRows(uint64_t rows) {
    if (rows <= rows_) return;
    if (rows > row_capacity_) {
      std::vector<uint64_t> old_storage = std::move(storage_);
      const uint64_t* old_base = base_;
      const uint64_t old_words = rows_ * row_stride_;
      row_capacity_ = std::max(rows, 2 * row_capacity_);
      AllocateZeroed(row_capacity_ * row_stride_);
      if (old_words > 0) std::copy(old_base, old_base + old_words, base_);
    }
    rows_ = rows;
  }

  uint64_t rows() const { return rows_; }
  uint64_t words_per_row() const { return words_per_row_; }
  uint64_t row_stride() const { return row_stride_; }

  const uint64_t* Row(uint64_t r) const { return base_ + r * row_stride_; }

  bool Test(uint64_t r, uint32_t c) const {
    return (Row(r)[c >> 6] >> (c & 63)) & 1u;
  }
  void Set(uint64_t r, uint32_t c) {
    base_[r * row_stride_ + (c >> 6)] |= uint64_t{1} << (c & 63);
  }
  void ClearRow(uint64_t r) {
    std::memset(base_ + r * row_stride_, 0,
                words_per_row_ * sizeof(uint64_t));
  }

  uint64_t MemoryBytes() const {
    return storage_.capacity() * sizeof(uint64_t);
  }

 private:
  static constexpr uint64_t kAlignWords = 8;  // 64 bytes

  /// Row placement stride for a logical row of `wpr` words: the next
  /// power of two up to a full cache line, then whole lines.
  static uint64_t RowStride(uint64_t wpr) {
    if (wpr <= 1) return wpr;
    if (wpr <= 2) return 2;
    if (wpr <= 4) return 4;
    return (wpr + kAlignWords - 1) / kAlignWords * kAlignWords;
  }

  void AllocateZeroed(uint64_t words) {
    storage_.assign(words + kAlignWords - 1, 0);
    uint64_t addr = reinterpret_cast<uint64_t>(storage_.data());
    const uint64_t align = kAlignWords * sizeof(uint64_t);
    const uint64_t offset = (align - addr % align) % align;
    base_ = storage_.data() + offset / sizeof(uint64_t);
  }

  uint64_t rows_ = 0;
  uint64_t row_capacity_ = 0;
  uint64_t words_per_row_ = 0;
  uint64_t row_stride_ = 0;
  uint64_t* base_ = nullptr;
  std::vector<uint64_t> storage_;
};

}  // namespace sgp

#endif  // SGP_COMMON_DENSE_BITSET_H_
