// Twitter-like social network benchmark (paper Section VI-A).
//
// Per user u the store keeps three records, partitioned by user (a user's
// records all live in one partition):
//   consumers(u): ids of users following u
//   producers(u): ids of users u follows
//   posts(u):     u's most recent messages
//
// Operations and their transaction classes:
//   post      — append a message to posts(u); always local.
//   follow    — u follows v: update producers(u) and consumers(v); local or
//               global depending on where v lives ("follow_global").
//   timeline  — read producers(u), then merge the posts of every followed
//               user; a global read-only transaction (never aborts).
//
// The paper's mix: 85% timeline, 7.5% post, 7.5% follow, follows global
// with 50% probability; two partitions of 100k users (default here is
// smaller and configurable; see DESIGN.md).
#pragma once

#include "sdur/partitioning.h"
#include "workload/driver.h"

namespace sdur::workload {

struct SocialConfig {
  std::uint64_t users_per_partition = 20'000;
  double timeline_fraction = 0.85;
  double post_fraction = 0.075;  // remainder is follow
  double follow_global_probability = 0.5;
  std::uint32_t initial_follows = 10;  // producers preloaded per user
  std::uint32_t initial_posts = 3;
  std::uint32_t posts_cap = 10;      // ring of most recent posts
  std::uint32_t follows_cap = 200;   // bound on list growth

  /// Run timelines as *certified* read-only transactions (paper Section
  /// III-A's first option: certify snapshot consistency at termination,
  /// which can abort but always sees fresh data) instead of executing
  /// against an asynchronously built global snapshot (never aborts, may
  /// be slightly stale). Compared by bench/ablation_readonly.
  bool certified_timeline = false;

  /// Sessions stop starting new operations once this returns false.
  std::function<bool()> keep_running{};
};

/// Key layout: key = (user << 2) | field.
enum SocialField : Key { kConsumers = 0, kProducers = 1, kPosts = 2 };

inline Key social_key(std::uint64_t user, SocialField field) {
  return (user << 2) | static_cast<Key>(field);
}

/// Users are partitioned round-robin: partition(u) = u % P, so "user u of
/// partition p" is easy to sample (u = p + k*P).
class UserPartitioning final : public Partitioning {
 public:
  explicit UserPartitioning(PartitionId count) : Partitioning(count) {}
  PartitionId partition_of(Key k) const override {
    return static_cast<PartitionId>((k >> 2) % count());
  }
};

/// List codecs (id lists for consumers/producers, string lists for posts).
std::string encode_id_list(const std::vector<std::uint64_t>& ids);
std::vector<std::uint64_t> decode_id_list(const std::string& value);
std::string encode_post_list(const std::vector<std::string>& posts);
std::vector<std::string> decode_post_list(const std::string& value);

class SocialWorkload final : public Workload {
 public:
  explicit SocialWorkload(SocialConfig cfg) : cfg_(cfg) {}

  static PartitioningPtr make_partitioning(PartitionId partitions) {
    return std::make_shared<UserPartitioning>(partitions);
  }

  void populate(Deployment& dep, util::Rng& rng) override;
  std::unique_ptr<Session> make_session(Client& client, PartitionId home, PartitionId partitions,
                                        util::Rng rng, Recorder& rec) override;

  const SocialConfig& config() const { return cfg_; }

 private:
  SocialConfig cfg_;
};

}  // namespace sdur::workload
