#include "runner/sinks.hpp"

#include <cstdio>
#include <ostream>

namespace tlrob::runner {

void JsonlSink::emit(const JobRecord& record) { os_ << to_json_line(record) << "\n"; }

FtTableSink::FtTableSink(std::FILE* out, std::string title)
    : out_(out), title_(std::move(title)) {}

void FtTableSink::begin(const CampaignSpec& spec, const std::vector<JobSpec>&) {
  columns_.clear();
  for (const auto& col : spec.columns) columns_.push_back(col.name);
  sums_.assign(columns_.size(), 0.0);
  ok_counts_.assign(columns_.size(), 0);
  col_cursor_ = 0;
  if (title_.empty()) title_ = spec.name;
  std::fprintf(out_, "=== %s ===\n", title_.c_str());
  std::fprintf(out_, "%-8s", "mix");
  for (const auto& name : columns_) std::fprintf(out_, " %14s", name.c_str());
  std::fprintf(out_, "\n");
}

void FtTableSink::emit(const JobRecord& record) {
  // Serialised by the engine's emitter lock (see the header's threading
  // contract); col_cursor_/sums_ need no lock of their own.
  if (col_cursor_ == 0) std::fprintf(out_, "%-8s", record.mix.c_str());
  if (record.ok()) {
    std::fprintf(out_, " %14.4f", record.ft);
    sums_[col_cursor_] += record.ft;
    ++ok_counts_[col_cursor_];
  } else {
    std::fprintf(out_, " %14s", "failed");
  }
  std::fflush(out_);
  if (++col_cursor_ == columns_.size()) {
    std::fprintf(out_, "\n");
    col_cursor_ = 0;
  }
}

void FtTableSink::end() {
  auto average = [&](size_t c) {
    return ok_counts_[c] == 0 ? 0.0 : sums_[c] / static_cast<double>(ok_counts_[c]);
  };
  std::fprintf(out_, "%-8s", "Average");
  for (size_t c = 0; c < columns_.size(); ++c) std::fprintf(out_, " %14.4f", average(c));
  std::fprintf(out_, "\n");
  std::fprintf(out_, "%-8s", "vs base");
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (average(0) > 0.0 && ok_counts_[c] > 0)
      std::fprintf(out_, " %+13.1f%%", 100.0 * (average(c) / average(0) - 1.0));
    else
      std::fprintf(out_, " %14s", "n/a");
  }
  std::fprintf(out_, "\n");
}

}  // namespace tlrob::runner
