// Unified technique-knob surface (DESIGN.md "Technique configuration").
//
// Every optional protocol technique — reordering, delaying, bloom
// readsets, vote batching, the out-of-order local commit, speculative
// global commit — lives here, in one struct, with one canonical string
// grammar. bench/common.h, tools/sdur_sim and the tests all build their
// configs through this type; ServerConfig embeds it as `techniques`
// (enforced by the `config-single-source` analyzer rule: no technique
// bool may be declared outside TechniqueConfig).
//
// String grammar (comma-separated tokens; canonical form emits only
// non-default knobs, in the fixed order below, or the literal
// `baseline` when everything is default):
//
//   baseline | geo | all-on        preset (first token only)
//   reorder=<N>                    reorder threshold R
//   delaying[=<T>]                 delaying; optional fixed delay
//   bloom[=<rate>]                 bloom readsets; optional fp rate
//   vote-batch[=<T>]               vote batching; optional flush interval
//   vote-batch-max=<N>             batch-size flush trigger
//   no-piggyback                   disable vote piggybacking
//   ooo-bypass                     out-of-order local commit
//   speculation                    speculative global commit
//
// Durations <T> take a us/ms/s suffix (`200us`, `40ms`). `format ->
// parse -> format` is a fixpoint for every valid config (pinned by
// tests/technique_config_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace sdur {

struct TechniqueConfig {
  // --- Reordering (Section IV-C) -----------------------------------------
  /// Reorder threshold R: a pending global transaction waits for R further
  /// deliveries, during which local transactions may be reordered before
  /// it. 0 disables reordering (baseline SDUR).
  std::uint32_t reorder_threshold = 0;

  // --- Delaying (Section IV-D) -------------------------------------------
  /// Delay the local broadcast of a global transaction by the estimated
  /// one-way delay to the farthest involved partition.
  bool delaying_enabled = false;
  /// Fixed delay for the delaying technique; 0 means "use the estimated
  /// inter-partition delay". The paper's Figure 3 sweeps 20/40/60 ms.
  sim::Time fixed_delay = 0;

  // --- Bloom readsets (Section V) ----------------------------------------
  /// Represent shipped readsets as bloom filters. Cuts bandwidth at the
  /// price of rare false-positive aborts.
  bool bloom_readsets = false;
  /// Per-probe false-positive rate; the end-to-end spurious-abort rate is
  /// roughly scan-depth x keys x this rate — keep it small.
  double bloom_fp_rate = 1e-5;

  // --- Vote batching (DESIGN.md "Vote exchange & batching") ---------------
  /// Coalesce outgoing votes per destination partition into VoteBatchMsg
  /// flushes instead of one VoteMsg unicast per transaction per remote
  /// replica. Default off = bit-identical legacy vote exchange
  /// (golden-digest pinned in tests/vote_batch_test.cpp).
  bool vote_batching = false;
  /// Max time a queued vote waits before the batcher force-flushes.
  sim::Time vote_batch_interval = sim::usec(200);
  /// Queue length per destination that triggers an immediate flush.
  std::size_t vote_batch_max = 64;
  /// Ride pending votes on messages already going to the destination
  /// partition's servers. Only meaningful with vote_batching on.
  bool vote_piggyback = true;

  // --- Out-of-order local commit (DESIGN.md section of the same name) -----
  /// Let a delivered local transaction certify and commit immediately,
  /// bypassing earlier-delivered pending globals it does not conflict
  /// with. Default off = bit-identical legacy completion order
  /// (golden-digest pinned in tests/convoy_bypass_test.cpp).
  bool ooo_bypass = false;

  // --- Speculative global commit (DESIGN.md section of the same name) -----
  /// Apply a global's writes as speculative versions as soon as local
  /// certification passes, instead of parking the transaction in the
  /// pending window until the remote votes arrive; finalize (promote +
  /// reply) or roll back (mid-chain undo) when the votes land. No
  /// cascade exists: a read of a key is never served at or above an
  /// unresolved writer of that key (the per-key read frontier, which is
  /// the protocol's read path, not a knob), so no transaction can observe
  /// speculative state. Default off = bit-identical legacy behaviour
  /// (golden-digest pinned in tests/speculation_test.cpp).
  bool speculation = false;

  bool operator==(const TechniqueConfig&) const = default;

  /// Named preset, or nullopt for an unknown name. Presets: `baseline`
  /// (everything default), `geo` (reordering + delaying, the paper's
  /// Section IV geo techniques), `all-on` (every technique enabled).
  static std::optional<TechniqueConfig> preset(std::string_view name);

  /// The preset names accepted by preset() / parse_techniques().
  static const std::vector<std::string_view>& preset_names();

  /// Empty string when the combination makes sense; otherwise an exact
  /// diagnostic (message text pinned by tests/technique_config_test.cpp).
  std::string validate() const;
};

/// Canonical string form: non-default knobs in grammar order, or
/// `baseline`. For every config that passes validate(),
/// `format(parse(format(c))) == format(c)`.
std::string format_techniques(const TechniqueConfig& t);

/// Parses the grammar above into `out` (starting from the given preset or
/// `baseline`). Returns false and fills `*error` (if non-null) on an
/// unknown token or malformed value; `out` is untouched on failure.
bool parse_techniques(std::string_view s, TechniqueConfig& out,
                      std::string* error = nullptr);

}  // namespace sdur
