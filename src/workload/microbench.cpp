#include "workload/microbench.h"

#include <algorithm>
#include <cstring>

#include "pdur/core_partitioner.h"
#include "util/zipf.h"

namespace sdur::workload {

std::string MicroWorkload::encode_value(TxId writer, std::size_t size) {
  std::string v(std::max<std::size_t>(size, sizeof(TxId)), '\0');
  std::memcpy(v.data(), &writer, sizeof(TxId));
  return v;
}

TxId MicroWorkload::decode_writer(std::string_view value) {
  if (value.size() < sizeof(TxId)) return 0;
  TxId id;
  std::memcpy(&id, value.data(), sizeof(TxId));
  return id;
}

void MicroWorkload::populate(Deployment& dep, util::Rng& rng) {
  (void)rng;
  const std::uint64_t total = cfg_.items_per_partition * dep.partition_count();
  const bool tagged = static_cast<bool>(cfg_.commit_hook);
  for (std::uint64_t k = 0; k < total; ++k) {
    dep.load(k, tagged ? encode_value(0, cfg_.value_size) : std::string(cfg_.value_size, 'x'));
  }
}

namespace {

class MicroSession final : public Session {
 public:
  MicroSession(Client& client, util::Rng rng, Recorder& rec, const MicroConfig& cfg,
               PartitionId home, PartitionId partitions)
      : client_(client), rng_(rng), rec_(rec), cfg_(cfg), home_(home), partitions_(partitions) {
    if (cfg_.zipf_theta > 0) {
      zipf_.emplace(cfg_.items_per_partition, cfg_.zipf_theta);
    }
    if (cfg_.cores > 1) part_.emplace(cfg_.cores);
  }

  void start() override { next(); }

 private:
  Key key_in(PartitionId p) {
    const std::uint64_t rank =
        zipf_ ? zipf_->sample(rng_) : rng_.below(cfg_.items_per_partition);
    return p * cfg_.items_per_partition + rank;
  }

  /// Rejection-samples a key in partition p homed on core c (matching =
  /// true) or anywhere but c (matching = false). Bounded tries keep the
  /// session live even with degenerate core/key layouts.
  Key key_for_core(PartitionId p, pdur::CoreId c, bool matching) {
    for (int tries = 0; tries < 256; ++tries) {
      const Key k = key_in(p);
      if ((part_->core_of(k) == c) == matching) return k;
    }
    return key_in(p);
  }

  void next() {
    if (cfg_.keep_running && !cfg_.keep_running()) return;
    client_.begin();
    const bool global = partitions_ > 1 && rng_.chance(cfg_.global_fraction);

    // ops_per_txn distinct keys; a global transaction keeps exactly one
    // remote item (paper: "updates one local object and one remote object").
    std::vector<Key> keys;
    const std::size_t ops = std::max<std::size_t>(cfg_.ops_per_txn, 2);
    const std::size_t home_keys = ops - (global ? 1 : 0);
    if (part_) {
      // Core-aware key choice (P-DUR workloads): pin the transaction's
      // home-partition keys to the first key's core, or deliberately span
      // a second core with probability cross_core_fraction.
      const bool cross = home_keys > 1 && rng_.chance(cfg_.cross_core_fraction);
      const Key first = key_in(home_);
      keys.push_back(first);
      const pdur::CoreId c0 = part_->core_of(first);
      while (keys.size() < home_keys) {
        const bool off_core = cross && keys.size() == 1;
        const Key k = key_for_core(home_, c0, !off_core);
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
      }
    } else {
      while (keys.size() < home_keys) {
        const Key k = key_in(home_);
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
      }
    }
    if (global) {
      PartitionId other = static_cast<PartitionId>(rng_.below(partitions_ - 1));
      if (other >= home_) ++other;
      keys.push_back(key_in(other));
    }
    const sim::Time begin = client_.now();
    const TxId txid = client_.current_txid();

    client_.read_many(keys, [this, keys, begin, global, txid](
                                std::vector<std::optional<std::string>> values) {
      std::vector<std::pair<Key, TxId>> reads;
      const bool tagged = static_cast<bool>(cfg_.commit_hook);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (tagged) {
          reads.emplace_back(keys[i],
                             values[i] ? MicroWorkload::decode_writer(*values[i]) : 0);
        }
        client_.write(keys[i], MicroWorkload::encode_value(tagged ? txid : 0, cfg_.value_size));
      }
      client_.commit([this, begin, global, txid, keys,
                      reads = std::move(reads)](Outcome outcome) mutable {
        const sim::Time now = client_.now();
        rec_.record(global ? "global" : "local", outcome, now - begin, now);
        if (outcome == Outcome::kCommit && cfg_.commit_hook) {
          cfg_.commit_hook(txid, std::move(reads), keys);
        }
        next();
      });
    });
  }

  Client& client_;
  util::Rng rng_;
  Recorder& rec_;
  const MicroConfig& cfg_;
  PartitionId home_;
  PartitionId partitions_;
  std::optional<util::ZipfGenerator> zipf_;
  std::optional<pdur::CorePartitioner> part_;  // set when cfg.cores > 1
};

}  // namespace

std::unique_ptr<Session> MicroWorkload::make_session(Client& client, PartitionId home,
                                                     PartitionId partitions, util::Rng rng,
                                                     Recorder& rec) {
  return std::make_unique<MicroSession>(client, rng, rec, cfg_, home, partitions);
}

}  // namespace sdur::workload
