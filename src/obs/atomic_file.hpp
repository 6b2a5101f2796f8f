// Crash-safe JSON artifact writing: temp file + atomic rename.
//
// Every JSON artifact the harnesses emit is consumed downstream by the
// CI gates (pdt diff, pdt replay --check, pdt report double-render). A
// harness killed mid-write used to leave a truncated file at the final
// path, turning the next gate run into a JSON parse error instead of a
// real verdict. AtomicFile writes to `<path>.tmp<pid>.<n>` (n = a
// process-wide writer counter, so concurrent threads never share a
// temp) and renames onto `<path>` only on commit(), so the final path
// either holds the complete previous artifact or the complete new one —
// never a torn write. Two threads racing the same path each commit a
// complete file; the last rename wins.
#pragma once

#include <fstream>
#include <ostream>
#include <string>

namespace pdt::obs {

class AtomicFile {
 public:
  /// Open the temporary sibling of `path` for writing. Check ok()
  /// before streaming: a failed open leaves a null-sink stream.
  explicit AtomicFile(std::string path);
  /// Removes the temp file if commit() was not called (or failed).
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  [[nodiscard]] bool ok() const { return os_.is_open() && os_.good(); }
  [[nodiscard]] std::ostream& stream() { return os_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Flush, close, fsync the temp file, rename it onto the final path,
  /// and fsync the containing directory (where the platform allows) so
  /// the committed bytes survive power loss. Returns false (and removes
  /// the temp) on any failure. Idempotent: a second call after success
  /// is a no-op returning true.
  bool commit();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream os_;
  bool committed_ = false;
};

}  // namespace pdt::obs
