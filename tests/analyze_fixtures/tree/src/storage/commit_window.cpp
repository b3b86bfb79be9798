// Fixture: the certification window holds the per-key indexes, so it is
// probe-only too — a for_each() walk or unordered container in a
// commit_window.* file is a finding; ordered records and probes are not.
#include <deque>

namespace storage {

struct CommitWindowFixture {
  std::deque<int> records_;                    // negative: version-ordered records
  std::unordered_set<uint64_t> seen_;          // positive: unordered container here
  bool probe(uint64_t k) const { return index_.find(k) != nullptr; }  // negative
  void walk() const {
    index_.for_each([](uint64_t) {});          // positive: table walk
  }
};

}  // namespace storage
