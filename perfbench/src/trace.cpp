#include "trace.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

/// Ids of the spans the calling thread has open, innermost last.
thread_local std::vector<std::int64_t> t_open;

/// utime + stime (clock ticks) from one /proc/.../stat line. The command
/// name may contain spaces and parentheses, so fields are counted from the
/// last ')'.
std::int64_t stat_ticks(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char buf[1024];
  const std::size_t len = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[len] = '\0';
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  // The ')' ends field 2; utime and stime are fields 14 and 15.
  int field = 2;
  std::int64_t utime = 0;
  std::int64_t stime = 0;
  for (const char* q = p + 1; *q != '\0'; ++q) {
    if (*q != ' ') continue;
    ++field;
    if (field == 14) utime = std::strtoll(q + 1, nullptr, 10);
    if (field == 15) {
      stime = std::strtoll(q + 1, nullptr, 10);
      break;
    }
  }
  return utime + stime;
}

}  // namespace

std::int64_t SpanLog::begin(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.op = op;
  s.start_ns = now_ns();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(s);
  }
  t_open.push_back(id);
  return id;
}

void SpanLog::end(std::int64_t id) {
  const std::int64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%lld\t%lld\t%llu\n", i,
                 static_cast<long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

std::int64_t other_threads_cpu_ns() {
  const long self = static_cast<long>(syscall(SYS_gettid));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::int64_t ticks = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    if (std::strtol(e->d_name, nullptr, 10) == self) continue;
    const std::string path =
        std::string("/proc/self/task/") + e->d_name + "/stat";
    ticks += stat_ticks(path.c_str());
  }
  closedir(dir);
  return ticks * (1'000'000'000 / sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
