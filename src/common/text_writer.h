#ifndef SGP_COMMON_TEXT_WRITER_H_
#define SGP_COMMON_TEXT_WRITER_H_

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <memory>
#include <ostream>
#include <string_view>

namespace sgp {

/// Block-buffered text output for the bulk writers (edge lists, partition
/// files): integers are formatted with std::to_chars into one block, and
/// full blocks go to std::ostream::write, instead of one formatted
/// operator<< per field. The bytes equal what std::ostream's operator<<
/// writes for the same values in the classic locale. The destructor
/// flushes what is left.
class BlockTextWriter {
 public:
  static constexpr size_t kBlockSize = size_t{1} << 16;

  explicit BlockTextWriter(std::ostream& out)
      : out_(out), buffer_(std::make_unique_for_overwrite<char[]>(kBlockSize)) {}
  ~BlockTextWriter() { Flush(); }

  BlockTextWriter(const BlockTextWriter&) = delete;
  BlockTextWriter& operator=(const BlockTextWriter&) = delete;

  BlockTextWriter& operator<<(char c) {
    if (size_ == kBlockSize) Flush();
    buffer_[size_++] = c;
    return *this;
  }

  BlockTextWriter& operator<<(std::string_view text) {
    if (text.size() > kBlockSize - size_) {
      Flush();
      if (text.size() > kBlockSize) {
        out_.write(text.data(), static_cast<std::streamsize>(text.size()));
        return *this;
      }
    }
    std::memcpy(buffer_.get() + size_, text.data(), text.size());
    size_ += text.size();
    return *this;
  }

  template <std::integral T>
  BlockTextWriter& operator<<(T value) {
    // 20 digits plus a sign cover every 64-bit value.
    if (kBlockSize - size_ < 21) Flush();
    char* const begin = buffer_.get() + size_;
    size_ += std::to_chars(begin, buffer_.get() + kBlockSize, value).ptr - begin;
    return *this;
  }

  void Flush() {
    out_.write(buffer_.get(), static_cast<std::streamsize>(size_));
    size_ = 0;
  }

 private:
  std::ostream& out_;
  std::unique_ptr<char[]> buffer_;
  size_t size_ = 0;
};

}  // namespace sgp

#endif  // SGP_COMMON_TEXT_WRITER_H_
