// SnapshotSource: the ingest API for on-disk shard sets — one v3 pack
// (dataset/pack.h) per file, decoded in order.
//
// Consumers pull with next() until nullopt. Decode faults accumulate in
// diagnostics() under the FaultClass taxonomy; error() is reserved for
// shards that are not a pack at all (unreadable file, unrecognizable
// magic/version) — the stream stops at such a shard so the caller can
// decide whether that is fatal.
//
// The source overlaps I/O with decode: while shard N is decoded on the
// calling thread, shard N+1 is mapped (util::MmapFile) by a pool worker, so
// a cold ingest streams at decode speed rather than decode + load speed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/decode.h"
#include "dataset/trace_batch.h"
#include "util/io.h"

namespace mum::util {
class ThreadPool;
}

namespace mum::dataset {

// The one decode entry point: validate a pack (PackView::open) and copy its
// valid records into a batch, metering the ingest.* telemetry. Strict =
// nullopt on the first fault; tolerant = best effort with faults in
// `diagnostics`, nullopt only for an unrecognizable container.
std::optional<SnapshotBatch> decode_snapshot(
    std::string_view bytes, const DecodeOptions& options = {},
    DecodeDiagnostics* diagnostics = nullptr);

// Why a source stopped: the supervision layer quarantines undecodable
// shards (the bytes are bad on disk) but merely recomputes past unreadable
// ones (the environment failed; the bytes may be fine).
enum class SourceErrorKind : std::uint8_t {
  kNone = 0,
  kUnreadable,    // map/read of the shard failed
  kUndecodable,   // bytes read but not a pack
};

class SnapshotSource {
 public:
  // Maps each file in order. With a pool, mapping shard N+1 overlaps
  // decoding shard N.
  SnapshotSource(std::vector<std::string> paths, const DecodeOptions& options,
                 util::ThreadPool* pool);

  // The next snapshot, or nullopt when the stream is exhausted — or broken;
  // distinguish with error().
  std::optional<SnapshotBatch> next();

  // Decode faults accumulated over everything next() has consumed.
  const DecodeDiagnostics& diagnostics() const noexcept { return diag_; }
  // Faults from only the most recent next() (per-shard reporting).
  const DecodeDiagnostics& last_diagnostics() const noexcept {
    return last_diag_;
  }
  // Path of the shard the most recent next() consumed.
  const std::string& last_path() const noexcept { return last_path_; }

  // Non-empty once a shard could not be read or recognized; next() has
  // returned nullopt and will keep doing so.
  const std::string& error() const noexcept { return error_; }
  // Classifies error() (kNone while the stream is healthy).
  SourceErrorKind error_kind() const noexcept { return kind_; }
  bool failed() const noexcept { return !error_.empty(); }

 private:
  std::vector<std::string> paths_;
  DecodeOptions options_;
  util::ThreadPool* pool_;
  util::io::OpContext context_;
  std::uint64_t map_ordinal_ = 0;
  std::size_t index_ = 0;
  std::optional<util::MmapFile> staged_;  // mapping for paths_[index_]
  DecodeDiagnostics diag_;
  DecodeDiagnostics last_diag_;
  std::string last_path_;
  std::string error_;
  SourceErrorKind kind_ = SourceErrorKind::kNone;
};

std::unique_ptr<SnapshotSource> make_file_source(
    std::vector<std::string> paths, const DecodeOptions& options = {},
    util::ThreadPool* pool = nullptr);

}  // namespace mum::dataset
