#include "test_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"

namespace neursc {
namespace testing_util {

ThreadsGuard::ThreadsGuard(size_t n) {
  const char* old = std::getenv("NEURSC_THREADS");
  if (old != nullptr) {
    had_old_ = true;
    old_ = old;
  }
  setenv("NEURSC_THREADS", std::to_string(n).c_str(), 1);
}

ThreadsGuard::~ThreadsGuard() {
  if (had_old_) {
    setenv("NEURSC_THREADS", old_.c_str(), 1);
  } else {
    unsetenv("NEURSC_THREADS");
  }
}

Graph MakeGraph(const std::vector<Label>& labels,
                const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder;
  for (Label l : labels) builder.AddVertex(l);
  for (const auto& [u, v] : edges) {
    Status st = builder.AddEdge(u, v);
    NEURSC_CHECK(st.ok()) << st.ToString();
  }
  auto built = builder.Build();
  NEURSC_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

Graph WithLabel(const Graph& g, VertexId v, Label label) {
  std::vector<Label> labels;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    labels.push_back(u == v ? label : g.GetLabel(u));
    for (VertexId w : g.Neighbors(u)) {
      if (u < w) edges.emplace_back(u, w);
    }
  }
  return MakeGraph(labels, edges);
}

void ExpectSameGraph(const Graph& got, const Graph& want,
                     const std::string& context) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices()) << context;
  EXPECT_EQ(got.NumEdges(), want.NumEdges()) << context;
  EXPECT_EQ(got.NumLabels(), want.NumLabels()) << context;
  EXPECT_EQ(got.MaxDegree(), want.MaxDegree()) << context;
  EXPECT_EQ(got.Fingerprint(), want.Fingerprint()) << context;
  EXPECT_TRUE(got == want) << context;
  auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  for (VertexId v = 0; v < want.NumVertices(); ++v) {
    EXPECT_EQ(got.GetLabel(v), want.GetLabel(v)) << context << " vertex " << v;
    EXPECT_TRUE(same(got.Neighbors(v), want.Neighbors(v)))
        << context << " neighbours of " << v;
    EXPECT_TRUE(same(got.NeighborLabels(v), want.NeighborLabels(v)))
        << context << " neighbour labels of " << v;
    EXPECT_EQ(got.LabelSignature(v), want.LabelSignature(v))
        << context << " label signature of " << v;
  }
  // One label past the last, whose group is empty in both.
  for (Label l = 0; l <= want.NumLabels(); ++l) {
    EXPECT_TRUE(same(got.VerticesWithLabel(l), want.VerticesWithLabel(l)))
        << context << " label " << l;
  }

  // `want` may come through the same factory as `got`, so the derived
  // arrays are also checked against their definitions.
  uint32_t max_degree = 0;
  Label max_label = 0;
  std::vector<std::vector<VertexId>> by_label(got.NumLabels());
  for (VertexId v = 0; v < got.NumVertices(); ++v) {
    max_degree = std::max(max_degree, got.Degree(v));
    max_label = std::max(max_label, got.GetLabel(v));
    if (got.GetLabel(v) < by_label.size()) {
      by_label[got.GetLabel(v)].push_back(v);
    }
    std::vector<Label> labels;
    for (VertexId w : got.Neighbors(v)) labels.push_back(got.GetLabel(w));
    std::sort(labels.begin(), labels.end());
    EXPECT_TRUE(same(got.NeighborLabels(v), std::span<const Label>(labels)))
        << context << " neighbour labels of " << v << " are not sorted";
    uint64_t signature = 0;
    for (Label l : labels) signature |= uint64_t{1} << (l % 64);
    EXPECT_EQ(got.LabelSignature(v), signature)
        << context << " label signature of " << v;
  }
  EXPECT_EQ(got.MaxDegree(), max_degree) << context;
  EXPECT_EQ(got.NumLabels(),
            got.NumVertices() == 0 ? 0 : size_t{max_label} + 1)
      << context;
  for (Label l = 0; l < by_label.size(); ++l) {
    EXPECT_TRUE(same(got.VerticesWithLabel(l),
                     std::span<const VertexId>(by_label[l])))
        << context << " label group " << l;
  }
}

uint64_t BruteForceCount(const Graph& query, const Graph& data) {
  const size_t nq = query.NumVertices();
  const size_t nd = data.NumVertices();
  if (nq > nd) return 0;
  std::vector<VertexId> mapping(nq, kInvalidVertex);
  std::vector<bool> used(nd, false);
  uint64_t count = 0;

  auto recurse = [&](auto&& self, size_t u) -> void {
    if (u == nq) {
      ++count;
      return;
    }
    for (size_t v = 0; v < nd; ++v) {
      if (used[v]) continue;
      if (data.GetLabel(static_cast<VertexId>(v)) !=
          query.GetLabel(static_cast<VertexId>(u))) {
        continue;
      }
      bool ok = true;
      for (VertexId w : query.Neighbors(static_cast<VertexId>(u))) {
        if (w < u && !data.HasEdge(static_cast<VertexId>(v), mapping[w])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      mapping[u] = static_cast<VertexId>(v);
      used[v] = true;
      self(self, u + 1);
      used[v] = false;
      mapping[u] = kInvalidVertex;
    }
  };
  recurse(recurse, 0);
  return count;
}

double MaxGradCheckError(const std::vector<Parameter*>& params,
                         const std::function<double()>& loss,
                         float step) {
  double max_rel_error = 0.0;
  for (Parameter* p : params) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      float original = p->value.data()[i];
      p->value.data()[i] = original + step;
      double plus = loss();
      p->value.data()[i] = original - step;
      double minus = loss();
      p->value.data()[i] = original;
      double numeric = (plus - minus) / (2.0 * step);
      double analytic = p->grad.data()[i];
      double denom = std::max({std::abs(numeric), std::abs(analytic), 1.0});
      max_rel_error =
          std::max(max_rel_error, std::abs(numeric - analytic) / denom);
    }
  }
  return max_rel_error;
}

std::vector<std::vector<float>> SnapshotWeights(
    const std::vector<Parameter*>& params) {
  std::vector<std::vector<float>> values;
  for (const Parameter* p : params) {
    values.emplace_back(p->value.data(), p->value.data() + p->value.size());
  }
  return values;
}

bool WeightsUnchanged(const std::vector<Parameter*>& params,
                      const std::vector<std::vector<float>>& before) {
  if (params.size() != before.size()) return false;
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& m = params[i]->value;
    if (m.size() != before[i].size() ||
        std::memcmp(m.data(), before[i].data(), m.size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

std::string ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  NEURSC_CHECK(f != nullptr) << "cannot open " << path;
  std::string out;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, got);
  }
  std::fclose(f);
  return out;
}

bool IsBalancedJson(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  bool saw_container = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        saw_container = true;
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return saw_container && stack.empty() && !in_string;
}

}  // namespace testing_util
}  // namespace neursc
