// Programmatic use of the campaign runner (src/runner): build a declarative
// sweep spec, run it on `jobs` workers (0 = one per hardware thread), stream
// records into JSON lines and a custom sink, and read the aggregated result
// back.
//
//   ./campaign_sweep [insts=8000] [warmup=2000] [jobs=0]
#include <cstdio>
#include <sstream>

#include "common/config.hpp"
#include "runner/cli.hpp"
#include "runner/engine.hpp"
#include "runner/render.hpp"

using namespace tlrob;
using namespace tlrob::runner;

namespace {

/// Sinks are just record consumers — a custom one composes with the
/// built-in JSONL/CSV/table sinks and sees records in the same canonical
/// order.
class BestCellSink : public ResultSink {
 public:
  void emit(const JobRecord& rec) override {
    if (rec.ok() && rec.ft > best_ft_) {
      best_ft_ = rec.ft;
      best_ = rec.config + " on " + rec.mix;
    }
  }
  void end() override {
    std::printf("best cell: %s (FT %.4f)\n", best_.c_str(), best_ft_);
  }

 private:
  double best_ft_ = 0.0;
  std::string best_;
};

}  // namespace

int run_example(const Options& opts) {

  CampaignSpec spec;
  spec.name = "example_sweep";
  spec.columns = {
      {"Baseline_32", baseline32_config(), 0},
      {"R-ROB8", two_level_config(RobScheme::kReactive, 8), 0},
      {"R-ROB16", two_level_config(RobScheme::kReactive, 16), 0},
  };
  spec.mixes = {table2_mix(1), table2_mix(5), table2_mix(10)};
  spec.lengths = {runner::run_length(opts, {8000, 2000})};
  const u32 jobs = static_cast<u32>(opts.get_u64("jobs", 0));
  opts.require_all_read();

  std::ostringstream jsonl;
  JsonlSink json_sink(jsonl);
  BestCellSink best_sink;
  FtTableSink table(stdout, "Example sweep: reactive threshold on three mixes");

  EngineOptions eng;
  eng.jobs = jobs;
  eng.sinks = {&table, &json_sink, &best_sink};

  const CampaignResult result = run_campaign(spec, eng);

  std::printf("\n%zu records (%u ok, %u failed); R-ROB16 average FT %.4f\n",
              result.records.size(), result.ok, result.failed,
              column_average_ft(result, "R-ROB16"));
  std::printf("first JSON record:\n%s\n",
              jsonl.str().substr(0, jsonl.str().find('\n')).c_str());
  return 0;
}

int main(int argc, char** argv) {
  return cli_main([&] { return run_example(Options::from_args(argc, argv)); });
}
