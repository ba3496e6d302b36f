// An xplaind child process driven over its stdin/stdout pipes.
#pragma once

#include <sys/types.h>

#include <string>

namespace perfbench {

class Daemon {
 public:
  /// Spawns `binary args...` with XPLAIN_WORKERS=`workers` and stderr sent
  /// to `log_path`.  Check running() afterwards.
  Daemon(const std::string& binary, const std::string& cache_path,
         std::size_t cache_max_bytes, int workers, const std::string& log_path);
  /// Closes stdin and reaps the child (SIGKILL after a grace period).
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  bool send(const std::string& line);
  /// Next stdout line; false on EOF, error or `timeout_s` without one.
  bool read_line(std::string* line, double timeout_s);

  /// User plus system CPU seconds of the child so far (all its threads).
  double cpu_s() const;
  /// The child's peak resident set, MB.
  double peak_rss_mb() const;

  /// Sends shutdown, waits for "bye" and for the process to exit; returns
  /// true on a clean exit with status 0.
  bool shutdown(double timeout_s);

 private:
  bool reap(double timeout_s);

  pid_t pid_ = -1;
  int in_fd_ = -1;   // child's stdin (we write)
  int out_fd_ = -1;  // child's stdout (we read)
  std::string buf_;
};

}  // namespace perfbench
