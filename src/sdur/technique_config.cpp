#include "sdur/technique_config.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sdur {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

/// `200us` / `40ms` / `2s` -> microseconds. Returns false on a malformed
/// number or missing suffix.
bool parse_time(std::string_view v, sim::Time* out) {
  sim::Time scale = 0;
  if (v.size() > 2 && v.substr(v.size() - 2) == "us") {
    scale = 1;
    v.remove_suffix(2);
  } else if (v.size() > 2 && v.substr(v.size() - 2) == "ms") {
    scale = 1000;
    v.remove_suffix(2);
  } else if (v.size() > 1 && v.back() == 's') {
    scale = 1'000'000;
    v.remove_suffix(1);
  } else {
    return false;
  }
  char buf[32];
  if (v.empty() || v.size() >= sizeof buf) return false;
  std::memcpy(buf, v.data(), v.size());
  buf[v.size()] = '\0';
  char* end = nullptr;
  long long n = std::strtoll(buf, &end, 10);
  if (end != buf + v.size() || n < 0) return false;
  *out = static_cast<sim::Time>(n) * scale;
  return true;
}

/// Canonical duration text: the largest exact unit.
std::string format_time(sim::Time t) {
  char buf[32];
  if (t % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%llds", static_cast<long long>(t / 1'000'000));
  } else if (t % 1000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldms", static_cast<long long>(t / 1000));
  } else {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(t));
  }
  return buf;
}

bool parse_uint(std::string_view v, unsigned long long* out) {
  char buf[32];
  if (v.empty() || v.size() >= sizeof buf) return false;
  char* end = nullptr;
  std::memcpy(buf, v.data(), v.size());
  buf[v.size()] = '\0';
  unsigned long long n = std::strtoull(buf, &end, 10);
  if (end != buf + v.size()) return false;
  *out = n;
  return true;
}

bool parse_double(std::string_view v, double* out) {
  char buf[64];
  if (v.empty() || v.size() >= sizeof buf) return false;
  char* end = nullptr;
  std::memcpy(buf, v.data(), v.size());
  buf[v.size()] = '\0';
  double d = std::strtod(buf, &end);
  if (end != buf + v.size()) return false;
  *out = d;
  return true;
}

bool fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

}  // namespace

std::optional<TechniqueConfig> TechniqueConfig::preset(std::string_view name) {
  TechniqueConfig t;
  if (name == "baseline") return t;
  if (name == "geo") {
    // The paper's Section IV geo techniques: reordering + delaying.
    t.reorder_threshold = 24;
    t.delaying_enabled = true;
    return t;
  }
  if (name == "all-on") {
    t.reorder_threshold = 24;
    t.delaying_enabled = true;
    t.bloom_readsets = true;
    t.vote_batching = true;
    t.ooo_bypass = true;
    t.speculation = true;
    return t;
  }
  return std::nullopt;
}

const std::vector<std::string_view>& TechniqueConfig::preset_names() {
  static const std::vector<std::string_view> kNames = {"baseline", "geo", "all-on"};
  return kNames;
}

std::string TechniqueConfig::validate() const {
  if (fixed_delay < 0) return "fixed_delay must be >= 0";
  if (fixed_delay != 0 && !delaying_enabled) return "fixed_delay requires delaying_enabled";
  if (bloom_readsets && !(bloom_fp_rate > 0.0 && bloom_fp_rate < 1.0))
    return "bloom_fp_rate must be in (0, 1)";
  if (vote_batch_interval < 0) return "vote_batch_interval must be >= 0";
  return "";
}

std::string format_techniques(const TechniqueConfig& t) {
  const TechniqueConfig defaults;
  std::string out;
  auto emit = [&out](const std::string& token) {
    if (!out.empty()) out += ',';
    out += token;
  };
  if (t.reorder_threshold != 0) emit("reorder=" + std::to_string(t.reorder_threshold));
  if (t.delaying_enabled) {
    emit(t.fixed_delay != 0 ? "delaying=" + format_time(t.fixed_delay)
                            : std::string("delaying"));
  }
  if (t.bloom_readsets) {
    if (t.bloom_fp_rate != defaults.bloom_fp_rate) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "bloom=%g", t.bloom_fp_rate);
      emit(buf);
    } else {
      emit("bloom");
    }
  }
  if (t.vote_batching) {
    emit(t.vote_batch_interval != defaults.vote_batch_interval
             ? "vote-batch=" + format_time(t.vote_batch_interval)
             : std::string("vote-batch"));
  }
  if (t.ooo_bypass) emit("ooo-bypass");
  if (t.speculation) emit("speculation");
  if (out.empty()) out = "baseline";
  return out;
}

bool parse_techniques(std::string_view s, TechniqueConfig& out, std::string* error) {
  TechniqueConfig t;
  bool first = true;
  std::string_view rest = s;
  while (true) {
    std::size_t comma = rest.find(',');
    std::string_view token = trim(rest.substr(0, comma));
    std::string_view key = token;
    std::string_view value;
    std::size_t eq = token.find('=');
    if (eq != std::string_view::npos) {
      key = token.substr(0, eq);
      value = token.substr(eq + 1);
    }
    bool has_value = eq != std::string_view::npos;
    if (token.empty() && !(first && comma == std::string_view::npos)) {
      return fail(error, "empty technique token");
    } else if (token.empty()) {
      // Whole-string empty == baseline.
    } else if (auto p = TechniqueConfig::preset(token)) {
      if (!first) return fail(error, "preset '" + std::string(token) + "' must be the first token");
      t = *p;
    } else if (key == "reorder") {
      unsigned long long n = 0;
      if (!has_value || !parse_uint(value, &n) || n > UINT32_MAX)
        return fail(error, "reorder needs a threshold, e.g. reorder=24");
      t.reorder_threshold = static_cast<std::uint32_t>(n);
    } else if (key == "delaying") {
      t.delaying_enabled = true;
      if (has_value && !parse_time(value, &t.fixed_delay))
        return fail(error, "bad duration in '" + std::string(token) + "' (use us/ms/s suffix)");
    } else if (key == "bloom") {
      t.bloom_readsets = true;
      if (has_value && !parse_double(value, &t.bloom_fp_rate))
        return fail(error, "bad rate in '" + std::string(token) + "'");
    } else if (key == "vote-batch") {
      t.vote_batching = true;
      if (has_value && !parse_time(value, &t.vote_batch_interval))
        return fail(error, "bad duration in '" + std::string(token) + "' (use us/ms/s suffix)");
    } else if (token == "ooo-bypass") {
      t.ooo_bypass = true;
    } else if (token == "speculation") {
      t.speculation = true;
    } else {
      return fail(error, "unknown technique token '" + std::string(token) + "'");
    }
    first = false;
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  out = t;
  return true;
}

}  // namespace sdur
