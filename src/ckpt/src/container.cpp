#include "le/ckpt/container.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "le/runtime/fault.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LE_CKPT_POSIX 1
#endif

namespace le::ckpt {

namespace {

constexpr const char* kMagic = "le-ckpt-v1";

[[noreturn]] void corrupt(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

std::string read_line(std::istream& in, const char* context) {
  std::string line;
  if (!std::getline(in, line)) {
    corrupt(std::string("truncated at ") + context);
  }
  // Every line the writer emits is newline-terminated; getline only sets
  // eofbit here when the final '\n' was torn off (truncated file).
  if (in.eof()) {
    corrupt(std::string("unterminated line at ") + context);
  }
  return line;
}

/// Validates a section name: one token, no whitespace (names share the
/// frame header line with the length and CRC fields).
void check_name(const std::string& name) {
  if (name.empty() || name.find_first_of(" \t\r\n") != std::string::npos) {
    throw std::invalid_argument("checkpoint: bad section name '" + name + "'");
  }
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

void write_container(std::ostream& out, const std::vector<Section>& sections) {
  out << kMagic << '\n' << "sections " << sections.size() << '\n';
  for (const Section& s : sections) {
    check_name(s.name);
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc32(s.payload));
    out << "section " << s.name << ' ' << s.payload.size() << ' ' << crc_hex
        << '\n';
    out.write(s.payload.data(),
              static_cast<std::streamsize>(s.payload.size()));
    out << '\n';
  }
  out << "end\n";
  if (!out) corrupt("stream write failed");
}

std::vector<Section> read_container(std::istream& in) {
  if (read_line(in, "magic") != kMagic) corrupt("bad magic/version header");
  std::size_t count = 0;
  {
    std::istringstream header(read_line(in, "section count"));
    std::string tag;
    if (!(header >> tag >> count) || tag != "sections") {
      corrupt("bad section-count header");
    }
  }
  std::vector<Section> sections;
  sections.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::istringstream frame(read_line(in, "frame header"));
    std::string tag, name, crc_hex;
    std::size_t size = 0;
    if (!(frame >> tag >> name >> size >> crc_hex) || tag != "section") {
      corrupt("bad frame header for section " + std::to_string(i));
    }
    Section s;
    s.name = std::move(name);
    s.payload.resize(size);
    if (size > 0) {
      in.read(s.payload.data(), static_cast<std::streamsize>(size));
      if (static_cast<std::size_t>(in.gcount()) != size) {
        corrupt("truncated payload in section '" + s.name + "'");
      }
    }
    if (in.get() != '\n') corrupt("missing frame terminator after '" +
                                  s.name + "'");
    const std::uint32_t expected =
        static_cast<std::uint32_t>(std::stoul(crc_hex, nullptr, 16));
    if (crc32(s.payload) != expected) {
      corrupt("CRC mismatch in section '" + s.name + "'");
    }
    sections.push_back(std::move(s));
  }
  if (read_line(in, "end marker") != "end") corrupt("missing end marker");
  return sections;
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
  std::ostringstream buffer(std::ios::binary);
  write_container(buffer, sections);
  const std::string bytes = std::move(buffer).str();
  atomic_write_file(path, bytes);
  return bytes.size();
}

std::vector<Section> read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) corrupt("cannot open " + path);
  return read_container(in);
}

}  // namespace le::ckpt
