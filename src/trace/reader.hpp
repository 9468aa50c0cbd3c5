// Streaming trace decoder with a bounded prefetch buffer.
//
// The reader pulls kPrefetchRecords-record chunks from its byte source into
// a fixed buffer and hands out decoded ChampSimRecords one at a time — the
// decoupled-frontend shape of ChampSim's IFETCH/DECODE buffers, sized so an
// arbitrarily large trace streams in constant memory. A stream whose byte
// count is not a multiple of the record size throws: the trace was
// truncated mid-record.
#pragma once

#include <memory>
#include <vector>

#include "trace/byte_source.hpp"
#include "trace/champsim.hpp"

namespace tlrob::trace {

inline constexpr u32 kPrefetchRecords = 256;

class TraceReader {
 public:
  explicit TraceReader(std::unique_ptr<TraceByteSource> src);

  /// Decodes the next record; false at clean end-of-trace. Throws
  /// std::runtime_error on a mid-record truncation or corrupt stream.
  bool next(ChampSimRecord& out);

  /// Repositions to record 0 (loop-rewind).
  void rewind();

  u64 records_decoded() const { return decoded_; }
  u64 rewinds() const { return rewinds_; }

 private:
  void refill();

  std::unique_ptr<TraceByteSource> src_;
  std::vector<u8> buf_;
  std::size_t buf_len_ = 0;
  std::size_t buf_pos_ = 0;
  bool eof_ = false;
  u64 decoded_ = 0;
  u64 rewinds_ = 0;
};

}  // namespace tlrob::trace
