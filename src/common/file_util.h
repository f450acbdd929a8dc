// The one file layer: every byte moved between the service and a snapshot,
// a DPXCOL image, the audit journal or a client-named CSV goes through here.
//   Open     Regular files only. The open does not block and is checked
//            with fstat, so a FIFO, device or directory is refused (IoError
//            naming the path); a read stops at the size seen at open.
//   Replace  WriteFileAtomic: write a tmp file beside the target (`path +
//            ".tmp." + pid`), fsync, rename, fsync the directory (Pillai et
//            al., OSDI 2014). After a process or host crash a reader sees
//            the old or the new file; on failure the target is untouched
//            and the tmp file is gone.
//   Append   AppendFile writes whole lines: a failed or short write cuts
//            back to the last whole line. Lines are not synced, so a host
//            crash (not a process crash) can lose the tail.

#ifndef DPCLUSTX_COMMON_FILE_UTIL_H_
#define DPCLUSTX_COMMON_FILE_UTIL_H_

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dpclustx {

/// A file descriptor that closes itself.
class UniqueFd {
 public:
  explicit UniqueFd(int fd = -1) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    reset(std::exchange(other.fd_, -1));
    return *this;
  }
  ~UniqueFd() { reset(); }

  int get() const { return fd_; }
  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_;
};

/// An open regular file and its size when it was opened.
struct RegularFile {
  UniqueFd fd;
  uint64_t size = 0;
};

/// Opens `path` with `flags` (O_CLOEXEC | O_NONBLOCK added; O_CREAT makes
/// it 0644) and refuses anything that is not a regular file. NotFound when
/// the path does not exist; IoError on any other failure.
StatusOr<RegularFile> OpenRegularFile(const std::string& path,
                                      int flags = O_RDONLY);

/// Hands the file's bytes to `consume` in chunks of at most 1 MiB, never
/// past the size seen at open.
Status ReadChunks(const RegularFile& file, const std::string& path,
                  const std::function<Status(const char*, size_t)>& consume);

/// Reads a whole regular file. NotFound when it does not exist; IoError on
/// any other failure.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// `size` bytes at `data`, to be written at `offset`.
struct FilePiece {
  uint64_t offset = 0;
  const void* data = nullptr;
  size_t size = 0;
};

/// Writes every piece at its offset into an open file.
Status WritePieces(int fd, const std::vector<FilePiece>& pieces,
                   const std::string& path);

/// fdatasync: the bytes written to `fd` are durable when this returns OK.
Status SyncData(int fd, const std::string& path);

/// Atomically replaces `path` with a `size`-byte image made of `pieces`;
/// bytes no piece covers read as zero (sparse where the filesystem allows).
Status WriteFileAtomic(const std::string& path, uint64_t size,
                       const std::vector<FilePiece>& pieces);
/// The same for an image held in one string.
Status WriteFileAtomic(const std::string& path, const std::string& contents);

/// An append-only file of whole lines. Not thread-safe.
class AppendFile {
 public:
  /// Opens (creating) `path` under the regular-file rule with O_APPEND and
  /// cuts a torn final line, so the next line starts on its own.
  Status Open(const std::string& path);
  /// Writes `line` and a newline in one piece. A failed or short write
  /// truncates the file back to its last whole line and returns IoError.
  Status AppendLine(std::string line);
  bool is_open() const { return fd_.get() >= 0; }
  void Close() { fd_.reset(); }

 private:
  UniqueFd fd_;
  uint64_t end_ = 0;  // the byte after the last whole line
  std::string path_;
};

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_FILE_UTIL_H_
