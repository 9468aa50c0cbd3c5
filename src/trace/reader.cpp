#include "trace/reader.hpp"

#include <stdexcept>

namespace tlrob::trace {

TraceReader::TraceReader(std::unique_ptr<TraceByteSource> src) : src_(std::move(src)) {
  buf_.resize(static_cast<std::size_t>(kPrefetchRecords) * kRecordBytes);
}

void TraceReader::refill() {
  buf_pos_ = 0;
  buf_len_ = 0;
  while (buf_len_ < buf_.size()) {
    const std::size_t got = src_->read(buf_.data() + buf_len_, buf_.size() - buf_len_);
    if (got == 0) break;
    buf_len_ += got;
  }
  if (buf_len_ < buf_.size()) {
    eof_ = true;
    if (buf_len_ % kRecordBytes != 0)
      throw std::runtime_error("trace ends mid-record (" + std::to_string(buf_len_ % kRecordBytes) +
                               " stray bytes; file truncated?)");
  }
}

bool TraceReader::next(ChampSimRecord& out) {
  if (buf_pos_ == buf_len_) {
    if (eof_) return false;
    refill();
    if (buf_len_ == 0) return false;
  }
  out = deserialize_record(buf_.data() + buf_pos_);
  buf_pos_ += kRecordBytes;
  ++decoded_;
  return true;
}

void TraceReader::rewind() {
  src_->rewind();
  buf_pos_ = 0;
  buf_len_ = 0;
  eof_ = false;
  ++rewinds_;
}

}  // namespace tlrob::trace

