// In-memory span log of the traced run. Spans are recorded around the
// benchmark's own calls into the library (no probe inside the library),
// kept in memory while the run measures, and written once at exit.
//
// A span has a name, start and end (seconds since the log was created), the
// index of its parent span (-1 at the root) and the id of the solve or step
// it belongs to. Self time is a span's duration minus the time its direct
// children cover; children never overlap because the loop is closed and
// single-caller.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name;
    double t0;
    double t1;
    int parent;
    long id;
  };

  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    long count = 0;
  };

  /// RAII span; a null log makes it a no-op, so untraced code paths share
  /// the traced ones.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, long id) : log_(log) {
      if (log_) idx_ = log_->open(name, id);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_) log_->close(idx_);
    }

   private:
    SpanLog* log_;
    int idx_ = -1;
  };

  SpanLog() : origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int open(const char* name, long id) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now(), 0.0, parent, id});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].t1 = now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name total and self time over all closed spans.
  std::map<std::string, Totals> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = spans_[i].t1 - spans_[i].t0;
      t.total_s += d;
      t.self_s += d - child[i];
      ++t.count;
    }
    return out;
  }

  /// One JSON object per line: name, start, end, parent, id. Returns false
  /// when the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* fp = std::fopen(path.c_str(), "w");
    if (!fp) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(fp,
                   "{\"span\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d, \"id\": %ld}\n",
                   i, s.name, s.t0, s.t1, s.parent, s.id);
    }
    return std::fclose(fp) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
