// Bank-transfer example: serializable multi-partition transactions.
//
// Accounts are range-partitioned across three partitions. Concurrent
// clients transfer money between random accounts (many transfers cross
// partitions, i.e. are global transactions). Serializability guarantees
// that money is conserved: at the end, the sum over all accounts must
// equal the initial total, and every individual transfer either fully
// happened or did not happen at all.
//
//   $ ./examples/bank_transfer
#include <cstdio>
#include <cstring>

#include "sdur/deployment.h"
#include "sdur/partitioning.h"
#include "util/rng.h"

using namespace sdur;

namespace {

constexpr PartitionId kPartitions = 3;
constexpr Key kAccountsPerPartition = 100;
constexpr std::int64_t kInitialBalance = 1'000;

std::string encode_balance(std::int64_t v) {
  std::string s(sizeof(v), '\0');
  std::memcpy(s.data(), &v, sizeof(v));
  return s;
}

std::int64_t decode_balance(const std::string& s) {
  std::int64_t v = 0;
  if (s.size() >= sizeof(v)) std::memcpy(&v, s.data(), sizeof(v));
  return v;
}

/// One closed-loop client transferring money between random accounts.
class Transfers {
 public:
  Transfers(Deployment& dep, Client& client, std::uint64_t seed)
      : dep_(dep), client_(client), rng_(seed) {}

  void start(int transfers) {
    remaining_ = transfers;
    next();
  }

  int committed = 0;
  int aborted = 0;

 private:
  void next() {
    if (remaining_-- <= 0) return;
    const Key total_accounts = kPartitions * kAccountsPerPartition;
    const Key from = rng_.below(total_accounts);
    Key to;
    do {
      to = rng_.below(total_accounts);
    } while (to == from);
    const auto amount = static_cast<std::int64_t>(1 + rng_.below(50));

    client_.begin();
    client_.read_many({from, to}, [this, from, to, amount](auto values) {
      const std::int64_t from_balance = values[0] ? decode_balance(*values[0]) : 0;
      const std::int64_t to_balance = values[1] ? decode_balance(*values[1]) : 0;
      if (from_balance < amount) {  // insufficient funds: give up, try another
        next();
        return;
      }
      client_.write(from, encode_balance(from_balance - amount));
      client_.write(to, encode_balance(to_balance + amount));
      client_.commit([this](Outcome o) {
        // On certification abort the transfer simply did not happen; a real
        // application would re-read and retry. Either way no money moves
        // partially.
        (o == Outcome::kCommit ? committed : aborted)++;
        next();
      });
    });
  }

  Deployment& dep_;
  Client& client_;
  util::Rng rng_;
  int remaining_ = 0;
};

}  // namespace

int main() {
  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kLan;
  spec.partitions = kPartitions;
  spec.partitioning = std::make_shared<RangePartitioning>(kPartitions, kAccountsPerPartition);
  spec.paxos.log_write_latency = sim::usec(500);
  Deployment dep(spec);

  const Key total_accounts = kPartitions * kAccountsPerPartition;
  for (Key a = 0; a < total_accounts; ++a) dep.load(a, encode_balance(kInitialBalance));
  dep.start();

  // Eight concurrent clients, 150 transfers each.
  std::vector<std::unique_ptr<Transfers>> sessions;
  for (int i = 0; i < 8; ++i) {
    Client& c = dep.add_client(static_cast<PartitionId>(i % kPartitions));
    sessions.push_back(std::make_unique<Transfers>(dep, c, 100 + i));
  }
  dep.simulator().schedule_at(sim::msec(300), [&] {
    for (auto& s : sessions) s->start(150);
  });
  dep.run_until(sim::sec(120));

  int committed = 0, aborted = 0;
  for (auto& s : sessions) {
    committed += s->committed;
    aborted += s->aborted;
  }
  std::printf("transfers: %d committed, %d aborted (certification conflicts)\n", committed,
              aborted);

  // Audit every partition on every replica: total money must be conserved.
  bool ok = true;
  for (std::uint32_t r = 0; r < 3; ++r) {
    std::int64_t total = 0;
    for (Key a = 0; a < total_accounts; ++a) {
      const PartitionId p = dep.partitioning()->partition_of(a);
      auto v = dep.server(p, r).store().get_latest(a);
      total += v ? decode_balance(v->value) : 0;
    }
    const std::int64_t expected = static_cast<std::int64_t>(total_accounts) * kInitialBalance;
    std::printf("replica %u audit: total=%lld expected=%lld %s\n", r,
                static_cast<long long>(total), static_cast<long long>(expected),
                total == expected ? "OK" : "*** MONEY NOT CONSERVED ***");
    ok = ok && total == expected;
  }
  return ok ? 0 : 1;
}
