/// @file
/// Crash-consistent checkpoint container (le::ckpt).
///
/// Long MLaroundHPC campaigns only amortize their training investment over
/// thousands of runs (Section III-D), and "AI-coupled HPC Workflows"
/// (arXiv:2208.11745) names persistent, restartable learning state a
/// prerequisite for production coupling.  This header provides the storage
/// layer: a versioned container of named sections, each framed with its
/// byte length and a CRC32, terminated by an end marker — so a truncated
/// (torn) file fails to parse and a bit-flipped one fails its checksum —
/// plus an atomic durable write (temp file in the same directory, flush,
/// fsync, rename) so a crash at any instant leaves either the previous
/// complete checkpoint or the new complete checkpoint, never a hybrid.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "le/obs/crc32.hpp"

namespace le::ckpt {

/// Thrown when a checkpoint cannot be read back: truncation, checksum
/// mismatch, version/magic mismatch or malformed framing.  Recovery policy
/// (skip to an older snapshot) lives in CampaignCheckpointer, not here.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// string; crc32("123456789") == 0xCBF43926.  The same function as
/// obs::crc32 (le/obs/crc32.hpp), the repo's one definition.
using obs::crc32;

/// One named payload inside a checkpoint.  Payloads are arbitrary bytes
/// (framed by length, not delimiters), so embedded newlines and NULs are
/// fine — nn::save_network output goes in verbatim.
struct Section {
  std::string name;
  std::string payload;
};

/// Serializes sections into the framed container format:
///
///   le-ckpt-v1\n
///   sections <count>\n
///   section <name> <payload_bytes> <crc32 hex>\n
///   <payload bytes>\n            (repeated per section)
///   end\n
void write_container(std::ostream& out, const std::vector<Section>& sections);

/// Parses a container, verifying framing and every CRC.  Throws
/// CheckpointError on any corruption (truncation, bad CRC, bad header).
[[nodiscard]] std::vector<Section> read_container(std::istream& in);

/// Durably replaces `path` with `bytes`: writes `<path>.tmp`, flushes and
/// fsyncs it, renames it over `path`, then fsyncs the directory.  A crash
/// anywhere in the sequence leaves `path` either absent/old or fully new.
/// Traverses runtime crash points "ckpt.temp_written" (temp durable, not
/// yet renamed) and "ckpt.renamed" for kill-mid-write tests.
void atomic_write_file(const std::string& path, std::string_view bytes);

/// atomic_write_file of a framed container.  Returns bytes written.
std::size_t write_checkpoint(const std::string& path,
                             const std::vector<Section>& sections);

/// Reads and verifies a checkpoint file written by write_checkpoint.
[[nodiscard]] std::vector<Section> read_checkpoint(const std::string& path);

}  // namespace le::ckpt
