#include "common/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dpclustx {
namespace {

constexpr uint64_t kReadChunkBytes = uint64_t{1} << 20;

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

StatusOr<RegularFile> OpenRegularFile(const std::string& path, int flags) {
  RegularFile file;
  file.fd.reset(::open(path.c_str(), flags | O_CLOEXEC | O_NONBLOCK, 0644));
  if (file.fd.get() < 0) {
    if (errno == ENOENT) return Status::NotFound("no file '" + path + "'");
    return ErrnoError("cannot open", path);
  }
  struct stat st;
  if (::fstat(file.fd.get(), &st) != 0) return ErrnoError("cannot stat", path);
  if (!S_ISREG(st.st_mode)) {
    return Status::IoError("'" + path + "' is not a regular file");
  }
  file.size = static_cast<uint64_t>(st.st_size);
  return file;
}

Status ReadChunks(const RegularFile& file, const std::string& path,
                  const std::function<Status(const char*, size_t)>& consume) {
  std::string chunk(std::min(file.size, kReadChunkBytes), '\0');
  for (uint64_t offset = 0; offset < file.size;) {
    const ssize_t n =
        ::pread(file.fd.get(), chunk.data(),
                std::min<uint64_t>(chunk.size(), file.size - offset),
                static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoError("read failure on", path);
    if (n == 0) break;  // the file shrank after it was opened
    DPX_RETURN_IF_ERROR(consume(chunk.data(), static_cast<size_t>(n)));
    offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  DPX_ASSIGN_OR_RETURN(const RegularFile file, OpenRegularFile(path));
  std::string contents;
  contents.reserve(file.size);
  DPX_RETURN_IF_ERROR(ReadChunks(file, path, [&](const char* data, size_t n) {
    contents.append(data, n);
    return Status::OK();
  }));
  return contents;
}

Status WritePieces(int fd, const std::vector<FilePiece>& pieces,
                   const std::string& path) {
  for (const FilePiece& piece : pieces) {
    const char* data = static_cast<const char*>(piece.data);
    for (size_t done = 0; done < piece.size;) {
      const ssize_t n = ::pwrite(fd, data + done, piece.size - done,
                                 static_cast<off_t>(piece.offset + done));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return ErrnoError("write failed on", path);
      done += static_cast<size_t>(n);
    }
  }
  return Status::OK();
}

Status SyncData(int fd, const std::string& path) {
  if (::fdatasync(fd) != 0) return ErrnoError("fdatasync failed on", path);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, uint64_t size,
                       const std::vector<FilePiece>& pieces) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  Status status;
  {
    const UniqueFd fd(
        ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644));
    if (fd.get() < 0) return ErrnoError("cannot create", tmp);
    if (::ftruncate(fd.get(), static_cast<off_t>(size)) != 0) {
      status = ErrnoError("cannot size", tmp);
    }
    if (status.ok()) status = WritePieces(fd.get(), pieces, tmp);
    if (status.ok() && ::fsync(fd.get()) != 0) {
      status = ErrnoError("fsync failed on", tmp);
    }
  }
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = ErrnoError("cannot rename over", path);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  // The rename is durable only once the directory holding it is synced.
  // EINVAL: a filesystem that cannot sync directories has nothing to sync.
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const UniqueFd dir_fd(
      ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (dir_fd.get() < 0 || (::fsync(dir_fd.get()) != 0 && errno != EINVAL)) {
    return ErrnoError("cannot sync the directory of", path);
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  return WriteFileAtomic(path, contents.size(),
                         {{0, contents.data(), contents.size()}});
}

Status AppendFile::Open(const std::string& path) {
  if (is_open()) {
    return Status::FailedPrecondition("'" + path_ + "' is already open");
  }
  DPX_ASSIGN_OR_RETURN(RegularFile file,
                       OpenRegularFile(path, O_RDWR | O_CREAT | O_APPEND));
  uint64_t end = file.size;
  for (char last = 0; end > 0; --end) {
    if (::pread(file.fd.get(), &last, 1, static_cast<off_t>(end - 1)) != 1) {
      return ErrnoError("cannot read", path);
    }
    if (last == '\n') break;
  }
  if (end != file.size &&
      ::ftruncate(file.fd.get(), static_cast<off_t>(end)) != 0) {
    return ErrnoError("cannot cut the torn final line of", path);
  }
  fd_ = std::move(file.fd);
  end_ = end;
  path_ = path;
  return Status::OK();
}

Status AppendFile::AppendLine(std::string line) {
  if (!is_open()) return Status::FailedPrecondition("append file is not open");
  line.push_back('\n');
  const ssize_t n = ::write(fd_.get(), line.data(), line.size());
  if (n == static_cast<ssize_t>(line.size())) {
    end_ += line.size();
    return Status::OK();
  }
  const Status failed =
      n < 0 ? ErrnoError("append failed on", path_)
            : Status::IoError("short append to '" + path_ + "' (" +
                              std::to_string(n) + " of " +
                              std::to_string(line.size()) + " bytes)");
  // Never leave a half line. If even the cut fails, close: every later
  // append then fails instead of continuing the half line.
  if (::ftruncate(fd_.get(), static_cast<off_t>(end_)) != 0) Close();
  return failed;
}

}  // namespace dpclustx
