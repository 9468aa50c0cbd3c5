#include "sim/metrics.hpp"

#include <stdexcept>

namespace tlrob {

double RunResult::total_throughput() const {
  double sum = 0;
  for (const auto& t : threads) sum += t.ipc;
  return sum;
}

u64 run_counter(const RunResult& r, const std::string& name) {
  auto it = r.counters.find(name);
  if (it == r.counters.end()) throw std::out_of_range("no counter named " + name);
  return it->second;
}

double weighted_ipc(double mt_ipc, double st_ipc) {
  if (st_ipc <= 0.0) throw std::invalid_argument("weighted_ipc: single-thread IPC must be > 0");
  return mt_ipc / st_ipc;
}

double fair_throughput(const std::vector<double>& mt_ipc, const std::vector<double>& st_ipc) {
  if (mt_ipc.empty() || mt_ipc.size() != st_ipc.size())
    throw std::invalid_argument("fair_throughput: mismatched or empty IPC vectors");
  double denom = 0;
  for (size_t i = 0; i < mt_ipc.size(); ++i) {
    const double w = weighted_ipc(mt_ipc[i], st_ipc[i]);
    if (w <= 0.0) return 0.0;  // a stalled thread pins the harmonic mean at 0
    denom += 1.0 / w;
  }
  return static_cast<double>(mt_ipc.size()) / denom;
}

}  // namespace tlrob
