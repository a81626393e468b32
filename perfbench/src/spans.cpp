#include "spans.hpp"

#include "host.hpp"

namespace perfbench {

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_s_(now_s()) {}

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(log) {
  if (!log_.enabled_) return;
  std::lock_guard<std::mutex> lock(log_.mu_);
  id_ = static_cast<int>(log_.spans_.size());
  const int parent = log_.open_.empty() ? -1 : log_.open_.back();
  log_.spans_.push_back(Span{std::move(name), now_s() - log_.origin_s_, 0.0,
                             parent});
  log_.open_.push_back(id_);
}

SpanLog::Scope::~Scope() {
  if (id_ < 0) return;
  std::lock_guard<std::mutex> lock(log_.mu_);
  log_.spans_[static_cast<std::size_t>(id_)].end_s = now_s() - log_.origin_s_;
  log_.open_.pop_back();
}

void SpanLog::add(std::string name, double start_abs_s, double end_abs_s,
                  int parent) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start_abs_s - origin_s_,
                        end_abs_s - origin_s_, parent});
}

void SpanLog::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n " : "\n ") << "{\"id\": " << i
       << ", \"name\": " << json_str(s.name)
       << ", \"start_s\": " << json_num(s.start_s)
       << ", \"end_s\": " << json_num(s.end_s) << ", \"parent\": " << s.parent
       << "}";
  }
  os << "\n]";
}

}  // namespace perfbench
