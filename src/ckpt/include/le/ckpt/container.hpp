/// @file
/// Crash-consistent checkpoint container (le::ckpt).
///
/// Long MLaroundHPC campaigns only amortize their training investment over
/// thousands of runs (Section III-D), and "AI-coupled HPC Workflows"
/// (arXiv:2208.11745) names persistent, restartable learning state a
/// prerequisite for production coupling.  This header provides the storage
/// layer: a versioned list of named sections stored as ONE frame of the
/// repo's byte codec (le/obs/codec.hpp) — magic, version, payload length
/// and one CRC32 over the payload — so a truncated (torn) file fails its
/// length check and a bit-flipped one fails its checksum, plus an atomic
/// durable write (temp file in the same directory, flush, fsync, rename)
/// so a crash at any instant leaves either the previous complete
/// checkpoint or the new complete checkpoint, never a hybrid.
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
/// mismatch, version/magic mismatch (including a pre-v2 text file) or
/// malformed framing — the only exception a corrupt file raises.  Recovery
/// policy (skip to an older snapshot) lives in CampaignCheckpointer, not
/// here.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// string; crc32("123456789") == 0xCBF43926.  The same function as
/// obs::crc32 (le/obs/crc32.hpp), the repo's one definition.
using obs::crc32;

/// One named payload inside a checkpoint.  Names and payloads are
/// arbitrary bytes (framed by length, not delimiters), so embedded
/// newlines and NULs are fine — nn::save_network output goes in verbatim.
struct Section {
  std::string name;
  std::string payload;
};

/// The section called `name`; throws CheckpointError when it is missing.
[[nodiscard]] const Section& find_section(const std::vector<Section>& sections,
                                          std::string_view name);

/// Serializes sections into the `le-ckpt-v2` container: one codec frame
/// (magic "LECK", version 2) whose payload is
///
///   u32 count | count x (u32 name_len | name | u32 payload_len | payload)
void write_container(std::ostream& out, const std::vector<Section>& sections);

/// Parses a container, verifying the frame and its CRC, then the section
/// list.  Throws CheckpointError on any corruption (truncation, bad CRC,
/// bad header, a pre-v2 file, trailing bytes).
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
