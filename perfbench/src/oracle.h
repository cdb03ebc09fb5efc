// Oracle: the benchmark's own record of what it wrote, against which every
// Get, MultiGet and RangeLookup result is checked — found or not found,
// the value bytes, and for scans the keys in order.
//
// Keys are the sorted union of the loaded keys and the insert pool; each
// has a version (0 = never written) and its value is a pure function of
// (key, version), so the record costs four bytes a key. Writers on
// different threads must touch disjoint keys.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "index/index.h"
#include "util/slice.h"
#include "util/status.h"
#include "workload/dataset.h"

namespace perfbench {

using lilsm::Key;

class Oracle {
 public:
  Oracle(std::vector<Key> sorted_keys, size_t value_size)
      : keys_(std::move(sorted_keys)),
        versions_(keys_.size(), 0),
        value_size_(value_size) {}

  size_t size() const { return keys_.size(); }
  Key key(size_t i) const { return keys_[i]; }
  size_t IndexOf(Key key) const {
    return static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }
  bool present(size_t i) const { return versions_[i] != 0; }
  size_t live() const { return live_; }

  /// The value version `version` of `key` holds.
  static std::string ValueOf(Key key, uint32_t version, size_t value_size) {
    return lilsm::DeriveValue(key ^ (uint64_t{version} * 0x9E3779B97F4A7C15ull),
                              value_size);
  }
  std::string Expected(size_t i) const {
    return ValueOf(keys_[i], versions_[i], value_size_);
  }

  /// Records a new write of key i and returns the value to write.
  std::string Write(size_t i) {
    if (versions_[i]++ == 0) live_++;
    return Expected(i);
  }
  /// Undoes the bookkeeping of a write the store rejected.
  void Unwrite(size_t i) {
    if (--versions_[i] == 0) live_--;
  }

  /// A point read of key i returned (status, value).
  bool CheckGet(size_t i, const lilsm::Status& s,
                const std::string& value) const {
    if (!present(i)) return s.IsNotFound();
    return s.ok() && value == Expected(i);
  }

  /// A scan of up to `count` entries from `start` returned `out`.
  bool CheckScan(Key start, size_t count,
                 const std::vector<std::pair<Key, std::string>>& out) const {
    size_t i = IndexOf(start);
    size_t n = 0;
    for (; i < keys_.size() && n < count; i++) {
      if (!present(i)) continue;
      if (n >= out.size() || out[n].first != keys_[i] ||
          out[n].second != Expected(i)) {
        return false;
      }
      n++;
    }
    return n == out.size();
  }

 private:
  const std::vector<Key> keys_;
  std::vector<uint32_t> versions_;
  const size_t value_size_;
  size_t live_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
