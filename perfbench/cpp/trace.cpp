#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "probes.h"

namespace perfbench::trace {
namespace {

struct RawSpan {
  std::int64_t id;
  const char* name;  // string literal: static storage
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
  std::int64_t record;
};

struct Mark {
  int edge;
  bool in;
  std::int64_t record;
  std::int64_t at_ns;
  std::int64_t parent;
};

// One per recording thread.  Owned by the registry so spans survive the
// engine's task threads, which exit at every rescale and at shutdown.
struct Buffer {
  std::vector<RawSpan> spans;
  std::vector<Mark> marks;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_id{1};
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_registry;  // guarded by g_registry_mutex
thread_local Buffer* t_buffer = nullptr;

Buffer& Local() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1 << 12);
    t_buffer = buffer.get();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::move(buffer));
  }
  return *t_buffer;
}

std::string LayerOf(const std::string& name) { return name.substr(0, name.find('.')); }

// Queue hops and source lag are time a record WAITED, spanning threads; they
// are accounted apart from the busy spans and do not cover their parent.
bool IsWait(const std::string& name) {
  return name.rfind("runtime.hop.", 0) == 0 || name == "runtime.source_lag";
}

}  // namespace

void Enable() { g_enabled.store(true); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void StartIdsAt(std::int64_t first) { g_next_id.store(first); }

std::int64_t NewId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

std::int64_t Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                    std::int64_t parent, std::int64_t record, std::int64_t id) {
  if (!Enabled()) return kNoParent;
  if (id < 0) id = NewId();
  Local().spans.push_back(RawSpan{id, name, start_ns, end_ns, parent, record});
  return id;
}

void HopOut(int edge, std::int64_t record, std::int64_t at_ns, std::int64_t parent) {
  if (!Enabled()) return;
  Local().marks.push_back(Mark{edge, false, record, at_ns, parent});
}

void HopIn(int edge, std::int64_t record, std::int64_t at_ns, std::int64_t parent) {
  if (!Enabled()) return;
  Local().marks.push_back(Mark{edge, true, record, at_ns, parent});
}

Scope::Scope(const char* name, std::int64_t parent, std::int64_t record)
    : name_(name),
      parent_(parent),
      record_(record),
      id_(Enabled() ? NewId() : kNoParent),
      start_ns_(Enabled() ? NowNs() : 0) {}

Scope::~Scope() {
  if (id_ >= 0) Record(name_, start_ns_, NowNs(), parent_, record_, id_);
}

std::vector<Span> Collect() {
  std::vector<Span> out;
  // (parent, edge, record) -> out mark time; matched against in marks.
  struct Key {
    std::int64_t parent;
    int edge;
    std::int64_t record;
    bool operator==(const Key& o) const {
      return parent == o.parent && edge == o.edge && record == o.record;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::int64_t>{}(k.record * 1315423911LL + k.parent * 31 + k.edge);
    }
  };
  std::unordered_map<Key, std::int64_t, KeyHash> outs;
  std::vector<Mark> ins;

  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : g_registry) {
    for (const RawSpan& s : buffer->spans) {
      out.push_back(Span{s.id, s.name, s.start_ns, s.end_ns, s.parent, s.record});
    }
    for (const Mark& m : buffer->marks) {
      if (m.in) {
        ins.push_back(m);
      } else {
        outs[Key{m.parent, m.edge, m.record}] = m.at_ns;
      }
    }
  }
  for (const Mark& m : ins) {
    const auto it = outs.find(Key{m.parent, m.edge, m.record});
    if (it == outs.end()) continue;
    out.push_back(Span{NewId(), "runtime.hop.e" + std::to_string(m.edge), it->second,
                       m.at_ns, m.parent, m.record});
  }
  return out;
}

std::vector<double> DurationsNs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::map<std::string, double> Finish(const std::vector<Span>& spans, const std::string& path) {
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != kNoParent && !IsWait(s.name)) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      std::int64_t reach = s.start_ns;
      for (const auto& [b, e] : kids) {
        const std::int64_t lo = std::max(b, reach);
        const std::int64_t hi = std::min(e, s.end_ns);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(e, s.end_ns));
      }
    }
    self_ms[LayerOf(s.name) + (IsWait(s.name) ? ".wait" : "")] +=
        static_cast<double>(std::max<std::int64_t>(0, s.end_ns - s.start_ns - covered)) * 1e-6;
  }

  if (!path.empty()) {
    if (std::FILE* f = std::fopen(path.c_str(), "a")) {
      for (const Span& s : spans) {
        std::fprintf(f,
                     "{\"id\": %lld, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"parent\": %lld, \"record\": %lld}\n",
                     static_cast<long long>(s.id), s.name.c_str(),
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.parent), static_cast<long long>(s.record));
      }
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write trace file %s\n", path.c_str());
    }
  }
  return self_ms;
}

}  // namespace perfbench::trace
