// tlrob-lint fixture: determinism-safe shapes D2 must NOT flag, including a
// reviewed suppression for host-side measurement.
// Expected findings: none.
#include <chrono>  // tlrob-lint: allow(D2) fixture: host-side measurement, never architectural state
#include <cstdint>
#include <map>

struct Rng {  // seeded, deterministic — the only sanctioned entropy source
  std::uint64_t state;
  std::uint64_t next() { return state = state * 6364136223846793005ull + 1442695040888963407ull; }
};

unsigned roll_latency(Rng& rng) { return static_cast<unsigned>(rng.next() % 7u); }

// Value-typed keys iterate in value order: deterministic.
std::map<std::uint64_t, unsigned> inflight_by_seq;

double host_elapsed_ms() {
  // tlrob-lint: allow(D2) fixture: wall-clock for a progress meter only
  const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t0.time_since_epoch()).count();
}
