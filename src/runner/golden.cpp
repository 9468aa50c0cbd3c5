#include "runner/golden.hpp"

namespace tlrob::runner {

RunLengthSpec golden_run_length() { return RunLengthSpec{3000, 1000}; }

GoldenRow golden_row(const JobRecord& record) {
  auto counter = [&record](const char* name) {
    const auto it = record.counters.find(name);
    return it == record.counters.end() ? u64{0} : it->second;
  };
  return {record.config, record.mix, to_string(record.status), record.cycles, record.committed,
          record.mt_ipc, counter("l2.misses"), counter("rob.allocations")};
}

}  // namespace tlrob::runner
