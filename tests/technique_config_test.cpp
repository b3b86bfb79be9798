// TechniqueConfig grammar tests (see DESIGN.md "Technique
// configuration"): preset round-trips, the format -> parse -> format
// fixpoint (for presets and for randomized knob combinations), exact
// validate() diagnostics, and exact parse error messages. The messages
// are pinned verbatim: tools and scripts match on them.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "sdur/technique_config.h"

namespace sdur {
namespace {

TechniqueConfig parse_ok(const std::string& s) {
  TechniqueConfig t;
  std::string error;
  EXPECT_TRUE(parse_techniques(s, t, &error)) << "'" << s << "': " << error;
  return t;
}

std::string parse_err(const std::string& s) {
  TechniqueConfig t;
  std::string error;
  EXPECT_FALSE(parse_techniques(s, t, &error)) << "'" << s << "' parsed unexpectedly";
  return error;
}

TEST(TechniqueConfig, DefaultsAreBaseline) {
  const TechniqueConfig t;
  EXPECT_EQ(format_techniques(t), "baseline");
  EXPECT_EQ(t.validate(), "");
  EXPECT_FALSE(t.delaying_enabled);
  EXPECT_FALSE(t.bloom_readsets);
  EXPECT_FALSE(t.vote_batching);
  EXPECT_FALSE(t.ooo_bypass);
  EXPECT_FALSE(t.speculation);
  EXPECT_EQ(t.reorder_threshold, 0u);
}

TEST(TechniqueConfig, PresetsRoundTrip) {
  for (std::string_view name : TechniqueConfig::preset_names()) {
    const auto p = TechniqueConfig::preset(name);
    ASSERT_TRUE(p.has_value()) << name;
    EXPECT_EQ(p->validate(), "") << name;
    // The canonical string re-parses to the same config...
    const std::string canon = format_techniques(*p);
    EXPECT_EQ(parse_ok(canon), *p) << name;
    // ...and the preset name itself parses to the preset.
    EXPECT_EQ(parse_ok(std::string(name)), *p);
  }
  EXPECT_FALSE(TechniqueConfig::preset("turbo").has_value());
}

TEST(TechniqueConfig, PresetContents) {
  const auto geo = TechniqueConfig::preset("geo");
  ASSERT_TRUE(geo);
  EXPECT_EQ(geo->reorder_threshold, 24u);
  EXPECT_TRUE(geo->delaying_enabled);
  EXPECT_FALSE(geo->speculation);
  const auto all = TechniqueConfig::preset("all-on");
  ASSERT_TRUE(all);
  EXPECT_TRUE(all->bloom_readsets);
  EXPECT_TRUE(all->vote_batching);
  EXPECT_TRUE(all->ooo_bypass);
  EXPECT_TRUE(all->speculation);
}

TEST(TechniqueConfig, PresetThenOverrides) {
  const TechniqueConfig t = parse_ok("geo,reorder=8,speculation");
  EXPECT_EQ(t.reorder_threshold, 8u);
  EXPECT_TRUE(t.delaying_enabled);
  EXPECT_TRUE(t.speculation);
}

TEST(TechniqueConfig, DurationsAndValues) {
  TechniqueConfig t = parse_ok("delaying=40ms");
  EXPECT_TRUE(t.delaying_enabled);
  EXPECT_EQ(t.fixed_delay, sim::msec(40));
  t = parse_ok("vote-batch=200us");
  EXPECT_TRUE(t.vote_batching);
  EXPECT_EQ(t.vote_batch_interval, sim::usec(200));
  t = parse_ok("bloom=0.001");
  EXPECT_TRUE(t.bloom_readsets);
  EXPECT_DOUBLE_EQ(t.bloom_fp_rate, 0.001);
  t = parse_ok("delaying=2s");
  EXPECT_EQ(t.fixed_delay, sim::sec(2));
  // Whitespace around tokens is tolerated; the empty string is baseline.
  EXPECT_EQ(parse_ok(" reorder=4 , ooo-bypass "), parse_ok("reorder=4,ooo-bypass"));
  EXPECT_EQ(parse_ok(""), TechniqueConfig{});
}

TEST(TechniqueConfig, ParseErrorMessagesPinned) {
  EXPECT_EQ(parse_err("reorder=4,geo"), "preset 'geo' must be the first token");
  EXPECT_EQ(parse_err("reorder=4,,bloom"), "empty technique token");
  EXPECT_EQ(parse_err("warp-drive"), "unknown technique token 'warp-drive'");
  EXPECT_EQ(parse_err("reorder"), "reorder needs a threshold, e.g. reorder=24");
  EXPECT_EQ(parse_err("reorder=many"), "reorder needs a threshold, e.g. reorder=24");
  EXPECT_EQ(parse_err("delaying=40"), "bad duration in 'delaying=40' (use us/ms/s suffix)");
  EXPECT_EQ(parse_err("vote-batch=fast"),
            "bad duration in 'vote-batch=fast' (use us/ms/s suffix)");
  EXPECT_EQ(parse_err("bloom=tiny"), "bad rate in 'bloom=tiny'");
  // Piggybacking and the flush size are constants, not knobs.
  EXPECT_EQ(parse_err("vote-batch,no-piggyback"), "unknown technique token 'no-piggyback'");
  EXPECT_EQ(parse_err("vote-batch,vote-batch-max=16"),
            "unknown technique token 'vote-batch-max=16'");
  // A failed parse must leave the output untouched.
  TechniqueConfig t;
  t.reorder_threshold = 7;
  EXPECT_FALSE(parse_techniques("nonsense", t, nullptr));
  EXPECT_EQ(t.reorder_threshold, 7u);
}

TEST(TechniqueConfig, ValidateMessagesPinned) {
  TechniqueConfig t;
  t.fixed_delay = sim::msec(20);
  EXPECT_EQ(t.validate(), "fixed_delay requires delaying_enabled");
  t.delaying_enabled = true;
  EXPECT_EQ(t.validate(), "");
  t = TechniqueConfig{};
  t.bloom_readsets = true;
  t.bloom_fp_rate = 1.5;
  EXPECT_EQ(t.validate(), "bloom_fp_rate must be in (0, 1)");
  t.bloom_fp_rate = 0.0;
  EXPECT_EQ(t.validate(), "bloom_fp_rate must be in (0, 1)");
}

// The core grammar contract: for every valid config, the canonical
// string survives a parse -> format round trip unchanged. Randomized
// over the full knob space (deterministic seed).
TEST(TechniqueConfig, RandomizedFormatParseFixpoint) {
  std::mt19937_64 rng(20260808);
  auto coin = [&rng] { return (rng() & 1) != 0; };
  for (int i = 0; i < 2000; ++i) {
    TechniqueConfig t;
    if (coin()) t.reorder_threshold = static_cast<std::uint32_t>(rng() % 100);
    if (coin()) {
      t.delaying_enabled = true;
      // Durations the formatter can represent exactly: whole us/ms/s.
      if (coin()) t.fixed_delay = sim::msec(1 + static_cast<sim::Time>(rng() % 100));
    }
    if (coin()) {
      t.bloom_readsets = true;
      if (coin()) t.bloom_fp_rate = 1e-4;
    }
    if (coin()) {
      t.vote_batching = true;
      if (coin()) t.vote_batch_interval = sim::usec(1 + static_cast<sim::Time>(rng() % 5000));
    }
    if (coin()) t.ooo_bypass = true;
    if (coin()) t.speculation = true;
    ASSERT_EQ(t.validate(), "") << format_techniques(t);

    const std::string canon = format_techniques(t);
    TechniqueConfig back;
    std::string error;
    ASSERT_TRUE(parse_techniques(canon, back, &error)) << canon << ": " << error;
    EXPECT_EQ(back, t) << canon;
    EXPECT_EQ(format_techniques(back), canon);
  }
}

}  // namespace
}  // namespace sdur
