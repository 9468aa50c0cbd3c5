// tlrob-mktrace — deterministic ChampSim-trace synthesis.
//
// Transcribes a synthetic SPEC profile's functional instruction stream into
// the 64-byte ChampSim record format (src/trace/synth.hpp), so the trace
// frontend can be exercised — in tests, CI and experiments — without any
// externally captured trace. Same arguments, bit-identical file.
//
//   tlrob-mktrace --profile art --records 100000 --out art.champsim.gz
//   tlrob-mktrace --profile mcf --records 4000 --seed 7 --out mcf.trace
//
// Output is gzip-compressed when --out ends in .gz (requires zlib), raw
// records otherwise. The resulting file runs through the campaign CLI as
// workload=trace:<file>, or through `simulate trace:<file>`. Options parse
// as in every front end (common/config.hpp); an unknown one or a bad value
// is "error: ..." with exit status 2.
#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "trace/byte_source.hpp"
#include "trace/champsim.hpp"
#include "trace/synth.hpp"
#include "workload/spec_profiles.hpp"

using namespace tlrob;

namespace {

void print_usage() {
  std::printf(
      "usage: tlrob-mktrace --profile NAME --records N --out PATH [--seed N]\n"
      "\n"
      "  --profile NAME  synthetic SPEC profile to transcribe (--list to see them)\n"
      "  --records N     dynamic instructions to emit (one 64-byte record each)\n"
      "  --out PATH      output file; '.gz' suffix selects gzip compression%s\n"
      "  --seed N        generator seed (default 1); same inputs => same bytes\n"
      "  --list          list the available profiles\n",
      trace::gzip_supported() ? "" : " (unavailable: built without zlib)");
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main([&] {
    const Options opts = Options::from_args(argc, argv, {"list", "help"});
    if (opts.has("help")) {
      print_usage();
      return 0;
    }
    if (opts.has("list")) {
      for (const auto& b : spec_benchmarks()) std::printf("%s\n", b.name.c_str());
      return 0;
    }

    const std::string profile = opts.get("profile", "");
    const u64 records = opts.get_u64("records", 0);
    const std::string out = opts.get("out", "");
    const u64 seed = opts.get_u64("seed", 1);
    opts.require_all_read();
    if (profile.empty() || records == 0 || out.empty()) {
      print_usage();
      return 2;
    }

    const auto recs = trace::synthesize_records(profile, records, seed);
    trace::write_trace_file(out, recs);

    u64 hash = trace::kFnvOffsetBasis;
    for (const auto& r : recs) hash = trace::fnv1a_record(hash, r);
    std::fprintf(stderr, "%s: %llu records (%s), content hash %016llx\n", out.c_str(),
                 static_cast<unsigned long long>(records),
                 out.size() > 3 && out.compare(out.size() - 3, 3, ".gz") == 0 ? "gzip" : "raw",
                 static_cast<unsigned long long>(hash));
    return 0;
  });
}
