#include "obs/telemetry_config.hpp"

#include <cstdlib>

#include "common/config.hpp"

namespace tlrob::obs {

TelemetryConfig default_telemetry_config() {
  // Computed once: the environment is the process-wide switch, not a
  // per-config knob (explicit assignment to MachineConfig::telemetry
  // overrides).
  static const TelemetryConfig cached = [] {
    TelemetryConfig cfg;
    if (const char* s = std::getenv("TLROB_SAMPLE"); s != nullptr && *s != '\0')
      cfg.sample_interval = parse_u64(s, "$TLROB_SAMPLE");
    return cfg;
  }();
  return cached;
}

}  // namespace tlrob::obs
