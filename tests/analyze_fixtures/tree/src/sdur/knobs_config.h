// Fixture: technique-config single source. A plain `bool` data member
// declared in a struct other than TechniqueConfig inside a
// src/sdur/*config*.h header is a technique knob in the wrong place, and
// so is a `bool&` alias re-exporting one under a second name;
// TechniqueConfig's own body and bool-returning function declarations
// must stay silent.

namespace sdur {

struct TechniqueConfig {
  bool delaying_enabled = false;  // negative: TechniqueConfig is the home
  bool speculation = false;       // negative
  bool operator==(const TechniqueConfig&) const = default;  // negative: function
};

struct ServerConfigData {
  TechniqueConfig techniques;
  bool verbose_shadow = false;  // positive: knob outside TechniqueConfig
  std::uint32_t replicas = 3;
};

struct ServerConfig : ServerConfigData {
  bool& delaying_enabled = techniques.delaying_enabled;  // positive: reference alias
  bool& speculation = techniques.speculation;            // positive: reference alias
  bool eager_flush;                                      // positive: uninitialized knob
  bool has_quorum() const;                               // negative: function declaration
};

}  // namespace sdur
