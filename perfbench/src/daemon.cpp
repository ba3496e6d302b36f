#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench.h"

extern char** environ;

namespace perfbench {

Daemon::Daemon(const std::string& binary, const std::string& cache_path,
               std::size_t cache_max_bytes, int workers,
               const std::string& log_path) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (pipe2(in_pipe, O_CLOEXEC) != 0) return;
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
  posix_spawn_file_actions_addopen(&fa, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);

  const std::string max_bytes = std::to_string(cache_max_bytes);
  std::vector<std::string> args = {binary, "--cache-path", cache_path,
                                   "--cache-max-bytes", max_bytes};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::vector<std::string> env;
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "XPLAIN_WORKERS=", 15) != 0) env.emplace_back(*e);
  env.push_back("XPLAIN_WORKERS=" + std::to_string(workers));
  std::vector<char*> envp;
  for (auto& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &fa, nullptr, argv.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&fa);
  close(in_pipe[0]);
  close(out_pipe[1]);
  if (rc != 0) {
    close(in_pipe[1]);
    close(out_pipe[0]);
    return;
  }
  pid_ = pid;
  in_fd_ = in_pipe[1];
  out_fd_ = out_pipe[0];
}

Daemon::~Daemon() {
  if (in_fd_ >= 0) close(in_fd_);  // EOF: the daemon shuts down gracefully
  in_fd_ = -1;
  if (pid_ > 0) reap(10.0);
  if (out_fd_ >= 0) close(out_fd_);
}

bool Daemon::send(const std::string& line) {
  if (in_fd_ < 0) return false;
  const std::string data = line + "\n";
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(in_fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Daemon::read_line(std::string* line, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (out_fd_ < 0) return false;
    const double left = deadline - now_s();
    if (left <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    const int r = poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char chunk[65536];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

double Daemon::cpu_s() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  const std::size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream rest(text.substr(close_paren + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

bool Daemon::shutdown(double timeout_s) {
  if (pid_ <= 0) return false;
  bool bye = false;
  if (send("{\"op\":\"shutdown\"}")) {
    std::string line;
    while (read_line(&line, timeout_s)) {
      if (line.find("\"bye\"") != std::string::npos) {
        bye = true;
        break;
      }
    }
  }
  close(in_fd_);
  in_fd_ = -1;
  return reap(timeout_s) && bye;
}

bool Daemon::reap(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return false;
    }
    if (now_s() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    usleep(2000);
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
