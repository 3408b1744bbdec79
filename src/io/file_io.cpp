#include "dassa/io/file_io.hpp"

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"

namespace dassa::io {

namespace {

/// The file layer's registry counters, resolved once.
struct FileCounters {
  Counter& opens = global_counters().counter(counters::kIoOpens);
  Counter& seeks = global_counters().counter(counters::kIoSeeks);
  Counter& read_calls = global_counters().counter(counters::kIoReadCalls);
  Counter& read_bytes = global_counters().counter(counters::kIoReadBytes);
  Counter& write_calls = global_counters().counter(counters::kIoWriteCalls);
  Counter& write_bytes = global_counters().counter(counters::kIoWriteBytes);
};

FileCounters& file_counters() {
  static FileCounters c;
  return c;
}

}  // namespace

InputFile::InputFile(const std::string& path)
    : path_(path), stream_(path, std::ios::binary) {
  if (!stream_) throw IoError("cannot open for reading: " + path);
  file_counters().opens.add();
  stream_.seekg(0, std::ios::end);
  size_ = static_cast<std::uint64_t>(stream_.tellg());
  stream_.seekg(0, std::ios::beg);
  pos_ = 0;
}

void InputFile::read_at(std::uint64_t off, void* dst, std::size_t n) {
  // Subtraction form: `off + n` wraps for corrupted offsets near 2^64.
  if (off > size_ || n > size_ - off) {
    throw IoError("read past end of " + path_ + " (offset " +
                  std::to_string(off) + ", size " + std::to_string(n) + ")");
  }
  if (off != pos_) {
    stream_.seekg(static_cast<std::streamoff>(off));
    file_counters().seeks.add();
  }
  stream_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(stream_.gcount()) != n) {
    throw IoError("short read from " + path_);
  }
  pos_ = off + n;
  file_counters().read_calls.add();
  file_counters().read_bytes.add(n);
}

std::vector<std::byte> InputFile::read_vec(std::uint64_t off, std::size_t n) {
  // Validate before sizing the buffer, so a corrupted length faults as
  // IoError instead of std::bad_alloc.
  if (off > size_ || n > size_ - off) {
    throw IoError("read past end of " + path_ + " (offset " +
                  std::to_string(off) + ", size " + std::to_string(n) + ")");
  }
  std::vector<std::byte> buf(n);
  read_at(off, buf.data(), n);
  return buf;
}

OutputFile::OutputFile(const std::string& path, Mode mode)
    : path_(path),
      stream_(path, mode == Mode::kTruncate
                        ? (std::ios::binary | std::ios::trunc)
                        : (std::ios::binary | std::ios::in |
                           std::ios::out)) {
  if (!stream_) throw IoError("cannot open for writing: " + path);
  file_counters().opens.add();
}

void OutputFile::write(const void* src, std::size_t n) {
  stream_.write(static_cast<const char*>(src),
                static_cast<std::streamsize>(n));
  if (!stream_) throw IoError("write failed on " + path_);
  pos_ += n;
  file_counters().write_calls.add();
  file_counters().write_bytes.add(n);
}

void OutputFile::write_at(std::uint64_t off, const void* src, std::size_t n) {
  stream_.seekp(static_cast<std::streamoff>(off));
  file_counters().seeks.add();
  stream_.write(static_cast<const char*>(src),
                static_cast<std::streamsize>(n));
  if (!stream_) throw IoError("write failed on " + path_);
  stream_.seekp(static_cast<std::streamoff>(pos_));
  file_counters().write_calls.add();
  file_counters().write_bytes.add(n);
}

void OutputFile::close() {
  stream_.flush();
  stream_.close();
  if (stream_.fail()) throw IoError("close failed on " + path_);
}

}  // namespace dassa::io
