#ifndef GTADOC_COMMON_SPAN_H_
#define GTADOC_COMMON_SPAN_H_

#include <cstddef>

namespace gtadoc {

/// A read-only view of `size` contiguous elements inside some owner's flat
/// array: `size`/`empty`/`[]` and range-for. Valid while the owner lives and
/// is not resized.
template <typename T>
class Span {
 public:
  Span() = default;
  Span(const T* data, size_t size) : data_(data), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace gtadoc

#endif  // GTADOC_COMMON_SPAN_H_
