// latency_report: reads the attribution / time-series / trace JSON a figure
// driver emits under --trace and answers "where did the tail go?"
//
//   latency_report results/ATTRIB_fig_overload.json
//       [--ts=results/TS_fig_overload.json] [--trace=results/trace.json]
//       [--series=NAME] [--expect=SERIES/CLASS/PHASE/MINSHARE]...
//       [--expect-dominant=SERIES/CLASS/PHASE]...
//
// For every sweep point it prints a per-class critical-path table: each
// phase's share of the slowest-K exemplar tail, its share of the whole
// measurement window (exact integer phase sums), and the phase-histogram
// p999. The slowest exemplar that carries a pinned span tree is expanded
// into a span-level critical-path listing. Machine-readable `verdict:` lines
// give the dominant tail phase per (series, class) at that series' top load
// point — CLASS `*` pools every class of the point.
//
// Expectations make the tool a CI gate: `--expect` demands a minimum tail
// share for a phase at the series' top load point, `--expect-dominant`
// demands the phase be the argmax. Exit codes are part of the contract:
//   0  report printed, all expectations met
//   1  an expectation failed
//   2  malformed input (JSON parse error, missing field, unreadable file)
//
// The parser below is deliberately self-contained (recursive descent over
// the full JSON grammar): the repo's writers emit JSON but nothing in-tree
// needed to *read* it until this tool, and the report must fail loudly
// (exit 2) on truncated or hand-edited input rather than misreport.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser.

struct Json {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;  // insertion order kept

  const Json* Find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct ParseError {
  std::string msg;
  size_t offset = 0;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json Parse() {
    Json v = Value();
    SkipWs();
    if (pos_ != text_.size()) Fail("trailing bytes after top-level value");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) {
    throw ParseError{why, pos_};
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      pos_++;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    pos_++;
  }

  Json Value() {
    SkipWs();
    switch (Peek()) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"': {
        Json v;
        v.type = Json::kString;
        v.str = String();
        return v;
      }
      case 't':
      case 'f':
        return Literal();
      case 'n':
        Keyword("null");
        return Json{};
      default:
        return Number();
    }
  }

  void Keyword(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      Fail("unrecognized literal");
    }
    pos_ += word.size();
  }

  Json Literal() {
    Json v;
    v.type = Json::kBool;
    if (Peek() == 't') {
      Keyword("true");
      v.boolean = true;
    } else {
      Keyword("false");
      v.boolean = false;
    }
    return v;
  }

  Json Number() {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    double d = std::strtod(begin, &end);
    if (end == begin) Fail("expected a JSON value");
    pos_ += static_cast<size_t>(end - begin);
    Json v;
    v.type = Json::kNumber;
    v.number = d;
    return v;
  }

  std::string String() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; i++) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else Fail("bad hex digit in \\u escape");
          }
          // The writers only emit ASCII; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  Json Array() {
    Expect('[');
    Json v;
    v.type = Json::kArray;
    SkipWs();
    if (Peek() == ']') {
      pos_++;
      return v;
    }
    for (;;) {
      v.arr.push_back(Value());
      SkipWs();
      char c = Peek();
      pos_++;
      if (c == ']') return v;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  Json Object() {
    Expect('{');
    Json v;
    v.type = Json::kObject;
    SkipWs();
    if (Peek() == '}') {
      pos_++;
      return v;
    }
    for (;;) {
      SkipWs();
      std::string key = String();
      SkipWs();
      Expect(':');
      v.obj.emplace_back(std::move(key), Value());
      SkipWs();
      char c = Peek();
      pos_++;
      if (c == '}') return v;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Typed views over the ATTRIB schema. Every accessor hard-fails (exit 2 via
// ParseError) when a required field is missing or mistyped.

const Json& Require(const Json& obj, std::string_view key) {
  const Json* v = obj.Find(key);
  if (v == nullptr) {
    throw ParseError{"missing required field \"" + std::string(key) + "\"", 0};
  }
  return *v;
}

double Num(const Json& obj, std::string_view key) {
  const Json& v = Require(obj, key);
  if (v.type != Json::kNumber) {
    throw ParseError{"field \"" + std::string(key) + "\" is not a number", 0};
  }
  return v.number;
}

const std::string& Str(const Json& obj, std::string_view key) {
  const Json& v = Require(obj, key);
  if (v.type != Json::kString) {
    throw ParseError{"field \"" + std::string(key) + "\" is not a string", 0};
  }
  return v.str;
}

const std::vector<Json>& Arr(const Json& obj, std::string_view key) {
  const Json& v = Require(obj, key);
  if (v.type != Json::kArray) {
    throw ParseError{"field \"" + std::string(key) + "\" is not an array", 0};
  }
  return v.arr;
}

std::string LoadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError{"cannot open " + path, 0};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Report model.

struct ClassTail {
  std::string name;
  uint64_t count = 0;
  double p999_us = 0;
  std::vector<double> window_ns;     // exact per-phase sums over the window
  std::vector<double> tail_ns;       // per-phase sums over the exemplars
  std::vector<double> phase_p999_us; // per-phase histogram p999
  const Json* exemplars = nullptr;
};

struct Point {
  std::string series;
  double x = NAN;
  uint64_t started = 0, measured = 0;
  std::vector<ClassTail> classes;
};

int DominantPhase(const std::vector<double>& ns) {
  int best = 0;
  for (size_t i = 1; i < ns.size(); i++) {
    if (ns[i] > ns[best]) best = static_cast<int>(i);
  }
  return best;
}

double Share(const std::vector<double>& ns, int phase) {
  double total = 0;
  for (double v : ns) total += v;
  return total > 0 ? ns[static_cast<size_t>(phase)] / total : 0;
}

struct Expectation {
  std::string series, cls, phase;
  double min_share = 0;     // used by --expect
  bool dominant_only = false;
};

// SERIES/CLASS/PHASE[/MINSHARE]; series names never contain '/'. MINSHARE
// must be a finite number in [0, 1]: an empty or negative share would make
// the check pass vacuously, and a NaN share or one above 1 could never pass.
bool ParseExpectation(std::string_view spec, bool dominant, Expectation* out) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= spec.size(); i++) {
    if (i == spec.size() || spec[i] == '/') {
      parts.emplace_back(spec.substr(start, i - start));
      start = i + 1;
    }
  }
  if (dominant ? parts.size() != 3 : parts.size() != 4) return false;
  out->series = parts[0];
  out->cls = parts[1];
  out->phase = parts[2];
  out->dominant_only = dominant;
  if (!dominant) {
    const char* begin = parts[3].c_str();
    char* end = nullptr;
    out->min_share = std::strtod(begin, &end);
    if (end == begin || *end != '\0') return false;
    if (!std::isfinite(out->min_share) || out->min_share < 0 ||
        out->min_share > 1) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Span-tree critical path for the slowest traced exemplar.

struct SpanRow {
  double id = 0, parent = 0;
  std::string name, cat;
  double start_ns = 0, end_ns = 0;
};

void PrintSpanTree(const std::vector<SpanRow>& spans, double id, double base_ns,
                   double total_ns, int depth) {
  for (const SpanRow& s : spans) {
    if (s.id != id) continue;
    double dur = s.end_ns - s.start_ns;
    std::printf("    %*s%-*s %-8s %9.2f %9.2f %5.1f%%\n", 2 * depth, "",
                28 - 2 * depth, s.name.c_str(), s.cat.c_str(),
                (s.start_ns - base_ns) / 1e3, dur / 1e3,
                total_ns > 0 ? 100.0 * dur / total_ns : 0.0);
    // Children, in start order (the writer already sorts by span id which
    // is allocation order, but be explicit).
    std::vector<const SpanRow*> kids;
    for (const SpanRow& c : spans) {
      if (c.parent == s.id && c.id != s.id) kids.push_back(&c);
    }
    std::sort(kids.begin(), kids.end(), [](const SpanRow* a, const SpanRow* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->id < b->id;
    });
    for (const SpanRow* c : kids) {
      PrintSpanTree(spans, c->id, base_ns, total_ns, depth + 1);
    }
  }
}

int Run(int argc, char** argv) {
  std::string attrib_path, ts_path, trace_path, series_filter;
  std::vector<Expectation> expects;
  for (int i = 1; i < argc; i++) {
    std::string_view arg = argv[i];
    auto val = [&arg](std::string_view flag) -> std::string_view {
      return arg.substr(flag.size());
    };
    if (arg.rfind("--ts=", 0) == 0) {
      ts_path = val("--ts=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = val("--trace=");
    } else if (arg.rfind("--series=", 0) == 0) {
      series_filter = val("--series=");
    } else if (arg.rfind("--expect=", 0) == 0 ||
               arg.rfind("--expect-dominant=", 0) == 0) {
      const bool dom = arg.rfind("--expect-dominant=", 0) == 0;
      Expectation e;
      if (!ParseExpectation(val(dom ? "--expect-dominant=" : "--expect="), dom,
                            &e)) {
        std::fprintf(stderr, "latency_report: bad expectation spec: %s\n",
                     argv[i]);
        return 2;
      }
      expects.push_back(std::move(e));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "latency_report: unknown flag %s\n", argv[i]);
      return 2;
    } else if (attrib_path.empty()) {
      attrib_path = arg;
    } else {
      std::fprintf(stderr, "latency_report: extra positional arg %s\n",
                   argv[i]);
      return 2;
    }
  }
  if (attrib_path.empty()) {
    std::fprintf(stderr,
                 "usage: latency_report ATTRIB.json [--ts=TS.json] "
                 "[--trace=TRACE.json] [--series=NAME]\n"
                 "         [--expect=SERIES/CLASS/PHASE/MINSHARE]... "
                 "[--expect-dominant=SERIES/CLASS/PHASE]...\n");
    return 2;
  }

  const Json root = Parser(LoadFile(attrib_path)).Parse();
  const std::string& bench = Str(root, "bench");
  std::vector<std::string> phases;
  for (const Json& p : Arr(root, "phases")) {
    if (p.type != Json::kString) throw ParseError{"phase name not a string", 0};
    phases.push_back(p.str);
  }
  const size_t np = phases.size();
  if (np == 0) throw ParseError{"empty phases list", 0};
  auto phase_index = [&phases](std::string_view name) {
    for (size_t i = 0; i < phases.size(); i++) {
      if (phases[i] == name) return static_cast<int>(i);
    }
    return -1;
  };

  std::vector<Point> points;
  for (const Json& jp : Arr(root, "points")) {
    Point pt;
    pt.series = Str(jp, "series");
    if (const Json* x = jp.Find("x"); x != nullptr) pt.x = x->number;
    pt.started = static_cast<uint64_t>(Num(jp, "started_ops"));
    pt.measured = static_cast<uint64_t>(Num(jp, "measured_ops"));
    for (const Json& jc : Arr(jp, "classes")) {
      ClassTail ct;
      ct.name = Str(jc, "class");
      ct.count = static_cast<uint64_t>(Num(jc, "count"));
      ct.p999_us = Num(jc, "p999_us");
      for (const Json& v : Arr(jc, "phase_total_ns")) ct.window_ns.push_back(v.number);
      for (const Json& v : Arr(jc, "phase_p999_us")) ct.phase_p999_us.push_back(v.number);
      if (ct.window_ns.size() != np || ct.phase_p999_us.size() != np) {
        throw ParseError{"per-phase array length != phases length", 0};
      }
      ct.tail_ns.assign(np, 0.0);
      ct.exemplars = &Require(jc, "exemplars");
      for (const Json& je : ct.exemplars->arr) {
        const auto& ph = Arr(je, "phase_ns");
        if (ph.size() != np) throw ParseError{"exemplar phase_ns length", 0};
        for (size_t i = 0; i < np; i++) ct.tail_ns[i] += ph[i].number;
      }
      pt.classes.push_back(std::move(ct));
    }
    points.push_back(std::move(pt));
  }

  // ---- the report ----
  std::printf("latency_report: %s (%zu points)\n", bench.c_str(),
              points.size());
  const Json* best_traced = nullptr;  // slowest exemplar with a span tree
  std::string best_traced_label;
  for (const Point& pt : points) {
    if (!series_filter.empty() && pt.series != series_filter) continue;
    if (std::isnan(pt.x)) {
      std::printf("\n== %s   started=%llu measured=%llu\n", pt.series.c_str(),
                  static_cast<unsigned long long>(pt.started),
                  static_cast<unsigned long long>(pt.measured));
    } else {
      std::printf("\n== %s @ x=%g   started=%llu measured=%llu\n",
                  pt.series.c_str(), pt.x,
                  static_cast<unsigned long long>(pt.started),
                  static_cast<unsigned long long>(pt.measured));
    }
    for (const ClassTail& ct : pt.classes) {
      const int dom = DominantPhase(ct.tail_ns);
      std::printf("  %-14s n=%-8llu p999=%.1fus  tail-dominant: %s (%.1f%%)\n",
                  ct.name.c_str(), static_cast<unsigned long long>(ct.count),
                  ct.p999_us, phases[static_cast<size_t>(dom)].c_str(),
                  100.0 * Share(ct.tail_ns, dom));
      std::printf("    %-14s %7s %8s %10s\n", "phase", "tail%", "window%",
                  "p999(us)");
      for (size_t i = 0; i < np; i++) {
        if (ct.tail_ns[i] <= 0 && ct.window_ns[i] <= 0) continue;
        std::printf("    %-14s %6.1f%% %7.1f%% %10.1f\n", phases[i].c_str(),
                    100.0 * Share(ct.tail_ns, static_cast<int>(i)),
                    100.0 * Share(ct.window_ns, static_cast<int>(i)),
                    ct.phase_p999_us[i]);
      }
      for (const Json& je : ct.exemplars->arr) {
        const Json* spans = je.Find("spans");
        if (spans == nullptr || spans->arr.empty()) continue;
        if (best_traced == nullptr ||
            Num(je, "total_ns") > Num(*best_traced, "total_ns")) {
          best_traced = &je;
          best_traced_label = pt.series + " " + ct.name;
        }
      }
    }
  }

  if (best_traced != nullptr) {
    // The pinned tree is the op's whole causal root tree, which can include
    // sibling ops of the same worker chain; display only the spans that
    // overlap this exemplar's own [start, end] interval.
    const double op_start = Num(*best_traced, "start_ns");
    const double op_end = Num(*best_traced, "end_ns");
    std::vector<SpanRow> spans;
    for (const Json& js : best_traced->Find("spans")->arr) {
      SpanRow s;
      s.id = Num(js, "id");
      s.parent = Num(js, "parent");
      s.name = Str(js, "name");
      s.cat = Str(js, "cat");
      s.start_ns = Num(js, "start_ns");
      s.end_ns = Num(js, "end_ns");
      const bool open = s.end_ns < s.start_ns;  // never finished
      if (s.start_ns > op_end || (!open && s.end_ns < op_start)) continue;
      spans.push_back(std::move(s));
    }
    const double total = Num(*best_traced, "total_ns");
    std::printf("\ncritical path: slowest traced op (%s, %.1fus, %zu spans)\n",
                best_traced_label.c_str(), total / 1e3, spans.size());
    std::printf("    %-28s %-8s %9s %9s %6s\n", "span", "cat", "start(us)",
                "dur(us)", "share");
    // Roots: spans whose parent is not in the pinned set.
    for (const SpanRow& s : spans) {
      bool has_parent = false;
      for (const SpanRow& p : spans) {
        if (p.id == s.parent && p.id != s.id) has_parent = true;
      }
      if (!has_parent) {
        PrintSpanTree(spans, s.id, Num(*best_traced, "start_ns"), total, 0);
      }
    }
  }

  // ---- verdicts: dominant tail phase at each series' top load point ----
  std::vector<const Point*> top;  // one per series, in first-seen order
  for (const Point& pt : points) {
    bool found = false;
    for (const Point*& t : top) {
      if (t->series == pt.series) {
        found = true;
        const bool better = std::isnan(t->x) || (!std::isnan(pt.x) && pt.x >= t->x);
        if (better) t = &pt;
      }
    }
    if (!found) top.push_back(&pt);
  }
  std::printf("\n");
  for (const Point* pt : top) {
    std::vector<double> pooled(np, 0.0);
    for (const ClassTail& ct : pt->classes) {
      const int dom = DominantPhase(ct.tail_ns);
      std::printf("verdict: series=\"%s\" x=%g class=%s dominant=%s share=%.3f\n",
                  pt->series.c_str(), pt->x, ct.name.c_str(),
                  phases[static_cast<size_t>(dom)].c_str(),
                  Share(ct.tail_ns, dom));
      for (size_t i = 0; i < np; i++) pooled[i] += ct.tail_ns[i];
    }
    const int dom = DominantPhase(pooled);
    std::printf("verdict: series=\"%s\" x=%g class=* dominant=%s share=%.3f\n",
                pt->series.c_str(), pt->x,
                phases[static_cast<size_t>(dom)].c_str(), Share(pooled, dom));
  }

  // ---- optional companion files ----
  if (!ts_path.empty()) {
    const Json ts = Parser(LoadFile(ts_path)).Parse();
    (void)Str(ts, "bench");
    for (const Json& jp : Arr(ts, "points")) {
      const auto& buckets = Arr(jp, "buckets");
      double peak_out = 0, completions = 0;
      for (const Json& b : buckets) {
        peak_out = std::max(peak_out, Num(b, "outstanding"));
        completions += Num(b, "completions");
        (void)Num(b, "arrivals");
        (void)Num(b, "t_ns");
      }
      std::printf("ts: series=\"%s\" x=%g buckets=%zu bucket_ns=%g "
                  "peak_outstanding=%g completions=%g\n",
                  Str(jp, "series").c_str(),
                  jp.Find("x") != nullptr ? jp.Find("x")->number : NAN,
                  buckets.size(), Num(jp, "bucket_ns"), peak_out, completions);
    }
  }
  if (!trace_path.empty()) {
    const Json tr = Parser(LoadFile(trace_path)).Parse();
    std::printf("trace: events=%zu dropped_spans=%g\n",
                Arr(tr, "traceEvents").size(), Num(tr, "droppedSpans"));
  }

  // ---- expectations ----
  int failures = 0;
  for (const Expectation& e : expects) {
    const Point* pt = nullptr;
    for (const Point* t : top) {
      if (t->series == e.series) pt = t;
    }
    if (pt == nullptr) {
      std::printf("expect FAIL: series \"%s\" not found\n", e.series.c_str());
      failures++;
      continue;
    }
    std::vector<double> tail(np, 0.0);
    bool have_class = false;
    for (const ClassTail& ct : pt->classes) {
      if (e.cls != "*" && ct.name != e.cls) continue;
      have_class = true;
      for (size_t i = 0; i < np; i++) tail[i] += ct.tail_ns[i];
    }
    const int want = phase_index(e.phase);
    if (!have_class || want < 0) {
      std::printf("expect FAIL: %s/%s/%s: unknown %s\n", e.series.c_str(),
                  e.cls.c_str(), e.phase.c_str(),
                  want < 0 ? "phase" : "class");
      failures++;
      continue;
    }
    const int dom = DominantPhase(tail);
    const double share = Share(tail, want);
    const bool ok = e.dominant_only ? dom == want : share >= e.min_share;
    char detail[96];
    if (e.dominant_only) {
      std::snprintf(detail, sizeof(detail), "dominance required, got %s",
                    phases[static_cast<size_t>(dom)].c_str());
    } else {
      std::snprintf(detail, sizeof(detail), "min %.3f", e.min_share);
    }
    std::printf("expect %s: series=\"%s\" class=%s phase=%s share=%.3f (%s)\n",
                ok ? "OK" : "FAIL", e.series.c_str(), e.cls.c_str(),
                e.phase.c_str(), share, detail);
    if (!ok) failures++;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "latency_report: malformed input: %s\n",
                 e.msg.c_str());
    return 2;
  }
}
