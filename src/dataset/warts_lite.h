// warts-lite helpers shared by the on-disk formats: the human-readable text
// form of a snapshot, and the LEB128 varints the ".mumc" checkpoint codec
// (run/checkpoint.h) is built on.
//
// CAIDA ships Archipelago traceroutes in scamper's warts container; the
// stand-in here is the v3 pack (dataset/pack.h), the one snapshot container
// this project writes and reads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dataset/trace_batch.h"

namespace mum::dataset {

// --- text -------------------------------------------------------------

// One line per hop, blank line between traces; lossless for the fields LPR
// uses. Intended for eyeballing and for golden-file tests.
std::string to_text(const TraceView& trace);
std::string to_text(const SnapshotBatch& snapshot);

// --- varint helpers ---------------------------------------------------

void put_varint(std::string& out, std::uint64_t value);
// Reads a varint at `pos`, advancing it; nullopt on truncation/overflow.
std::optional<std::uint64_t> get_varint(std::string_view in,
                                        std::size_t& pos);

}  // namespace mum::dataset
