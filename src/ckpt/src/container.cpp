#include "le/ckpt/container.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "le/obs/codec.hpp"
#include "le/runtime/fault.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LE_CKPT_POSIX 1
#endif

namespace le::ckpt {

namespace {

/// `le-ckpt-v2`: "LECK" as little-endian bytes.  Checkpoints carry whole
/// datasets and networks, so the only length bound is the u32 field's.
constexpr obs::FrameFormat kCkptFormat{"le-ckpt", 0x4B43454CU, 2,
                                       0xFFFFFFFFU};
/// Frame type of a section list, the only payload a checkpoint holds.
constexpr std::uint16_t kSectionListType = 1;

[[noreturn]] void corrupt(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

std::string encode_container(const std::vector<Section>& sections) {
  obs::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(sections.size()));
  for (const Section& s : sections) {
    w.put_string(s.name);
    w.put_string(s.payload);
  }
  return obs::encode_frame(kCkptFormat, kSectionListType, w.bytes());
}

#ifdef LE_CKPT_POSIX
/// fsync a path (file or directory); best effort for directories where
/// some filesystems refuse O_RDONLY directory syncs.
void fsync_path(const std::string& path, bool required) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (required) {
      corrupt("cannot open for fsync: " + path + " (" +
              std::strerror(errno) + ")");
    }
    return;
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0 && required) {
    corrupt("fsync failed: " + path + " (" + std::strerror(errno) + ")");
  }
}
#endif

}  // namespace

const Section& find_section(const std::vector<Section>& sections,
                            std::string_view name) {
  for (const Section& s : sections) {
    if (s.name == name) return s;
  }
  corrupt("missing section '" + std::string(name) + "'");
}

void write_container(std::ostream& out, const std::vector<Section>& sections) {
  const std::string bytes = encode_container(sections);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) corrupt("stream write failed");
}

std::vector<Section> read_container(std::istream& in) {
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  try {
    obs::ByteReader r(obs::decode_frame(bytes, kCkptFormat, kSectionListType));
    // Each section costs at least its two u32 length fields.
    std::vector<Section> sections(r.count(8));
    for (Section& section : sections) {
      section.name = r.string();
      section.payload = r.string();
    }
    r.expect_end();
    return sections;
  } catch (const obs::CodecError& e) {
    corrupt(e.what());
  }
}

void atomic_write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
#ifdef LE_CKPT_POSIX
  // O_TRUNC: a stale temp file from an earlier crash is simply overwritten.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) corrupt("cannot create " + tmp + " (" + std::strerror(errno) + ")");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      corrupt("write failed: " + tmp + " (" + std::strerror(err) + ")");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    corrupt("fsync failed: " + tmp + " (" + std::strerror(err) + ")");
  }
  ::close(fd);
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) corrupt("cannot create " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) corrupt("write failed: " + tmp);
  }
#endif
  // The temp file is durable but invisible to readers; a kill here must
  // leave the previous checkpoint intact (tests arm this point).
  runtime::crash_point("ckpt.temp_written");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) corrupt("rename " + tmp + " -> " + path + ": " + ec.message());
  runtime::crash_point("ckpt.renamed");
#ifdef LE_CKPT_POSIX
  // Make the rename itself durable: sync the containing directory.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  fsync_path(dir.empty() ? "." : dir, /*required=*/false);
#endif
}

std::size_t write_checkpoint(const std::string& path,
                             const std::vector<Section>& sections) {
  const std::string bytes = encode_container(sections);
  atomic_write_file(path, bytes);
  return bytes.size();
}

std::vector<Section> read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) corrupt("cannot open " + path);
  return read_container(in);
}

}  // namespace le::ckpt
