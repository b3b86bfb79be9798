// Vote-exchange batching ablation (see DESIGN.md "Vote exchange &
// batching"): sweeps the vote batcher's flush interval against the legacy
// per-transaction vote unicast, across partition counts and global mix,
// and reports for every arm
//   - committed throughput,
//   - wire messages that exist only to carry votes (kVote unicasts +
//     kVoteBatch flushes; piggybacked votes ride messages that were being
//     sent anyway and cost nothing),
//   - how the votes travelled (batched vs piggybacked vs repair unicasts),
//   - the commit_wait stage mean of global transactions from the trace
//     breakdown (ready -> completed: vote arrival + reorder threshold).
//
// The interval sweep exposes the tradeoff the batcher navigates: longer
// windows collapse more messages (and hand more votes to free piggyback
// rides, especially past the 10ms gossip period) but defer vote sends;
// under load the reorder threshold and the receiver's CPU queue hide that
// deferral, so vote messages drop multiples before commit_wait moves.
//
// Flags:
//   --smoke   reduced sweep; used by the ablation_vote_batching_smoke
//             ctest entry. In both modes the binary exits non-zero when
//             the acceptance bar breaks: some batching arm must move >= 4x
//             fewer vote messages than legacy without increasing the
//             global commit_wait mean by more than 5%.
#include <string_view>
#include <vector>

#include "common.h"
#include "sdur/messages.h"

using namespace sdur;
using namespace sdur::bench;

namespace {

struct Arm {
  const char* label;
  bool batching;
  sim::Time interval;  // 0 = ServerConfig default (only with batching on)
};

struct ArmResult {
  double tput = 0;
  std::uint64_t vote_messages = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t votes_batched = 0;
  std::uint64_t votes_piggybacked = 0;
  std::uint64_t repair_unicasts = 0;
  double commit_wait_ms = -1;  // global-class stage mean; -1 = not attributed
  std::uint64_t chains = 0;
};

/// Runs one arm traced; reads its message counts and the globals'
/// commit_wait mean.
ArmResult run_arm(const Scenario& s, std::size_t ring) {
  const TracedRun t = run_traced(s, ring);
  const sim::NetworkStats& net = t.run.net;
  const std::uint64_t unicasts = net.per_type_count.at(msgtype::kVote);
  return {.tput = t.run.throughput(),
          .vote_messages = unicasts + net.per_type_count.at(msgtype::kVoteBatch),
          .messages_sent = net.messages_sent,
          .votes_batched = t.run.servers.votes_batched,
          .votes_piggybacked = t.run.servers.votes_piggybacked,
          .repair_unicasts = s.spec.server.techniques.vote_batching ? unicasts : 0,
          .commit_wait_ms = mean_ms(t.breakdown.global, "commit_wait"),
          .chains = t.breakdown.global.chains};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  auto& rep = report_open("vote_batching");
  print_header("Vote-exchange batching ablation (LAN, near saturation)");

  const std::vector<Arm> arms =
      smoke ? std::vector<Arm>{{"off", false, 0},
                               {"batch-1ms", true, sim::msec(1)},
                               {"batch-20ms", true, sim::msec(20)}}
            : std::vector<Arm>{{"off", false, 0},
                               {"batch-1ms", true, sim::msec(1)},
                               {"batch-2ms", true, sim::msec(2)},
                               {"batch-3ms", true, sim::msec(3)},
                               {"batch-5ms", true, sim::msec(5)},
                               {"batch-10ms", true, sim::msec(10)}};
  const std::vector<PartitionId> partition_counts =
      smoke ? std::vector<PartitionId>{2} : std::vector<PartitionId>{2, 4};
  const std::vector<double> global_fractions =
      smoke ? std::vector<double>{0.2} : std::vector<double>{0.1, 0.2};
  const std::uint32_t base_clients = smoke ? 32 : 96;
  const std::size_t ring = smoke ? (1u << 18) : (1u << 20);

  bool ok = true;
  for (PartitionId parts : partition_counts) {
    for (double gf : global_fractions) {
      const std::uint32_t clients = base_clients * parts / 2;
      std::printf("\n%u partitions, %.0f%% global, %u clients:\n", parts, gf * 100, clients);
      double off_votes = 0, off_wait = -1;
      bool config_ok = false;
      double best_ratio = 0, best_ratio_wait = -1;
      for (const Arm& arm : arms) {
        Scenario s = bench_scenario(DeploymentSpec::Kind::kLan);
        s.spec.partitions = parts;
        TechniqueConfig& t = s.spec.server.techniques;
        t.reorder_threshold = 32;
        t.vote_batching = arm.batching;
        if (arm.interval > 0) t.vote_batch_interval = arm.interval;
        s.run.clients = clients;
        s.micro = {.items_per_partition = 20'000, .global_fraction = gf};
        const ArmResult r = run_arm(s, ring);

        const double ratio =
            arm.batching && r.vote_messages > 0
                ? off_votes / static_cast<double>(r.vote_messages)
                : (arm.batching ? off_votes : 1.0);
        std::printf(
            "  %-12s tput=%8.0f tps  vote-msgs=%8llu (%5.2fx)  batched=%7llu  "
            "piggybacked=%7llu  repair=%5llu  commit_wait=%7.1f ms (%llu chains)\n",
            arm.label, r.tput, static_cast<unsigned long long>(r.vote_messages),
            arm.batching ? ratio : 1.0, static_cast<unsigned long long>(r.votes_batched),
            static_cast<unsigned long long>(r.votes_piggybacked),
            static_cast<unsigned long long>(r.repair_unicasts), r.commit_wait_ms,
            static_cast<unsigned long long>(r.chains));
        rep.row()
            .str("label", arm.label)
            .num("partitions", parts)
            .num("global_fraction", gf)
            .num("clients", clients)
            .num("tput_tps", r.tput)
            .num("vote_messages", static_cast<double>(r.vote_messages))
            .num("vote_msg_reduction", arm.batching ? ratio : 1.0)
            .num("messages_sent", static_cast<double>(r.messages_sent))
            .num("votes_batched", static_cast<double>(r.votes_batched))
            .num("votes_piggybacked", static_cast<double>(r.votes_piggybacked))
            .num("commit_wait_ms", r.commit_wait_ms);

        if (!arm.batching) {
          off_votes = static_cast<double>(r.vote_messages);
          off_wait = r.commit_wait_ms;
        } else {
          if (ratio > best_ratio) {
            best_ratio = ratio;
            best_ratio_wait = r.commit_wait_ms;
          }
          // Acceptance: >= 4x fewer vote messages without inflating the
          // global commit_wait mean (5% tolerance; with trace compiled
          // out only the message bar applies).
          const bool wait_ok =
              off_wait < 0 || r.commit_wait_ms < 0 || r.commit_wait_ms <= off_wait * 1.05;
          if (ratio >= 4.0 && wait_ok) config_ok = true;
        }
      }
      if (!config_ok) {
        std::fprintf(stderr,
                     "ablation_vote_batching: no arm at %u partitions / %.0f%% globals reached "
                     "4x fewer vote messages without raising commit_wait (best %.2fx, "
                     "commit_wait %.1f ms vs off %.1f ms)\n",
                     parts, gf * 100, best_ratio, best_ratio_wait, off_wait);
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}
