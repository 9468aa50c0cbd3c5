// Structured result sinks. The engine delivers records to every sink in
// campaign expansion order (it holds an in-order reorder window over job
// completions — fittingly, a reorder buffer for experiment results), so a
// sink never needs its own ordering logic and a parallel campaign's output
// is byte-identical to a serial one's.
//
// Threading contract: sinks are externally synchronised. begin()/end() run
// on the campaign thread before the pool starts / after it drains, and
// every emit() happens under the in-order emitter's Mutex (engine.cpp), so
// sink implementations keep mutable state without locks of their own — but
// must not assume which thread calls emit(). tlrob-lint rule C1 watches
// this file: any mutex that does appear here must carry GUARDED_BY
// annotations (common/thread_annotations.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/record.hpp"

namespace tlrob::runner {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once before any record, with the expanded job list.
  virtual void begin(const CampaignSpec& spec, const std::vector<JobSpec>& jobs) {
    (void)spec;
    (void)jobs;
  }

  /// Called once per job, in expansion order.
  virtual void emit(const JobRecord& record) = 0;

  /// Called once after the last record.
  virtual void end() {}
};

/// One JSON object per line (JSON lines / ndjson).
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}
  void emit(const JobRecord& record) override;

 private:
  std::ostream& os_;
};

/// The paper-style fair-throughput table (one row per mix, one column per
/// configuration, then the average row and each column's percentage
/// improvement over the first, baseline, column). Streams each row
/// as soon as its cells arrive; failed cells print "failed" and are
/// excluded from the averages.
class FtTableSink : public ResultSink {
 public:
  /// `title` heads the table; defaults to the campaign name when empty.
  explicit FtTableSink(std::FILE* out, std::string title = "");

  void begin(const CampaignSpec& spec, const std::vector<JobSpec>& jobs) override;
  void emit(const JobRecord& record) override;
  void end() override;

 private:
  std::FILE* out_;
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<double> sums_;
  std::vector<u64> ok_counts_;
  size_t col_cursor_ = 0;  // next column expected within the current row
};

}  // namespace tlrob::runner
