// The chaos recipe (workload::chaos_recipe): message loss, follower churn
// with recovery, short-period checkpoints and 40% globals over 3
// partitions, then a heal and a long drain. The technique tests (vote
// batching, the out-of-order local commit, speculation) run it with their
// technique on, and with every technique off against the legacy
// protocol's digest (tests/legacy_golden.h); here it runs with every
// technique on at once.
#include <gtest/gtest.h>

#include "sdur/technique_config.h"
#include "workload/scenario.h"

namespace sdur::workload {
namespace {

/// Every technique at once (the `all-on` preset), on serial and on P-DUR
/// replicas: the combination converges under the same chaos, and its
/// digest pins the completion order of every technique together.
/// Re-pinned once when speculated writes moved from the store into the
/// round until finalize: checkpoints no longer carry unresolved speculated
/// versions, so StateTransfer bytes shrank (serial 73351 -> 73300, four
/// cores 158743 -> 158726); replica state and every other counter are
/// unchanged. Re-pinned again when the checkpoint's dedup sections became
/// the per-client session table (73300 -> 65697, 158726 -> 141689), on the
/// same terms. Re-pinned once more when retries began failing over to the
/// partition's other replicas: the message schedule, and with it the
/// fabric RNG stream, changed. Re-pinned once more when clients began
/// choosing replicas by miss count: a read lost to the recipe's 2% loss
/// moves the client's next requests, with probe copies, on the same terms.
/// Re-pinned once more when contacts began choosing a remote partition's
/// replica by silence: under the 2% loss a lost vote can leave replica 0
/// silent while another replica was heard, on the same terms.
/// Re-pinned once more when recovered replicas began answering clients
/// only once caught up and contacts began re-sending a remote part on
/// their own timer: recovering followers drop probe copies while they
/// replay, and a part lost to the loss goes out again, on the same terms.
/// Re-pinned once more when reads began retrying after one round trip
/// plus a slack, followers began campaigning from a timer at their
/// suspicion deadline and checkpoints began covering only applied
/// deliveries: a read lost to the loss goes out again sooner, on the same
/// terms.
void expect_all_on_converges(std::uint32_t cores, std::uint64_t golden) {
  const ScenarioResult r = run_scenario(chaos_recipe(*TechniqueConfig::preset("all-on"), cores));
  EXPECT_EQ(r.digest, golden) << "all-on completion order changed";
  EXPECT_TRUE(r.agree) << "replicas of each partition converged byte-for-byte";
  EXPECT_TRUE(r.drained) << "every pending global and speculation resolved after heal";
  EXPECT_GT(r.committed, 20u) << "the chaos run made real progress";
  EXPECT_EQ(r.new_violations, 0u);
}

TEST(ChaosRecipe, AllOnConvergesSerial) { expect_all_on_converges(1, 0x1c7d3bb580e7869dULL); }

TEST(ChaosRecipe, AllOnConvergesFourCores) { expect_all_on_converges(4, 0x476306b19b564d75ULL); }

}  // namespace
}  // namespace sdur::workload
