#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last (the parent of the next
// span opened on this thread).
thread_local std::vector<std::int64_t> openStack;

double microsSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

}  // namespace

std::int64_t Tracer::open(std::string_view name, std::uint32_t run,
                          Clock::time_point start) {
  SpanRecord rec;
  rec.name = std::string(name);
  rec.run = run;
  rec.parent = openStack.empty() ? -1 : openStack.back();
  rec.startUs = microsSince(origin_, start);
  std::int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(rec));
  }
  openStack.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id, Clock::time_point end) {
  if (!openStack.empty() && openStack.back() == id) openStack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].endUs = microsSince(origin_, end);
}

std::vector<double> Tracer::durationsMs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.endUs >= s.startUs) {
      out.push_back((s.endUs - s.startUs) / 1000.0);
    }
  }
  return out;
}

std::map<std::uint32_t, std::vector<double>> Tracer::durationsByRun(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint32_t, std::vector<double>> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.endUs >= s.startUs) {
      out[s.run].push_back((s.endUs - s.startUs) / 1000.0);
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out.precision(15);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"run\":"
        << s.run << ",\"parent\":" << s.parent << ",\"start_us\":"
        << s.startUs << ",\"end_us\":" << s.endUs << "}\n";
  }
}

}  // namespace perfbench
