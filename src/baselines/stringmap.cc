#include "baselines/stringmap.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <utility>

#include "baselines/blocking_key.h"
#include "common/check.h"
#include "common/hashing.h"
#include "common/random.h"
#include "common/string_util.h"
#include "text/similarity.h"

namespace sablock::baselines {

namespace {

double Dist(const std::string& a, const std::string& b) {
  return static_cast<double>(text::EditDistance(a, b));
}

double SquaredEuclidean(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// Grid over the first two embedding dimensions. Cell ids are derived from
// the data's bounding box with `grid_size` cells per axis.
class Grid2D {
 public:
  Grid2D(const std::vector<std::vector<double>>& points, int grid_size)
      : grid_size_(grid_size) {
    SABLOCK_CHECK(grid_size_ >= 1);
    min_[0] = min_[1] = 1e300;
    max_[0] = max_[1] = -1e300;
    for (const auto& p : points) {
      for (int d = 0; d < 2; ++d) {
        min_[d] = std::min(min_[d], p[d]);
        max_[d] = std::max(max_[d], p[d]);
      }
    }
    for (int d = 0; d < 2; ++d) {
      span_[d] = std::max(max_[d] - min_[d], 1e-9);
    }
    for (uint32_t id = 0; id < points.size(); ++id) {
      cells_[CellKey(Coord(points[id], 0), Coord(points[id], 1))].push_back(
          id);
    }
  }

  int Coord(const std::vector<double>& p, int d) const {
    double rel = (p[d] - min_[d]) / span_[d];
    int c = static_cast<int>(rel * grid_size_);
    return std::clamp(c, 0, grid_size_ - 1);
  }

  uint64_t CellKey(int cx, int cy) const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
           static_cast<uint32_t>(cy);
  }

  /// Sets `out` to the records in the (2r+1)x(2r+1) cell neighbourhood
  /// around (cx, cy).
  void Neighbourhood(int cx, int cy, int radius,
                     std::vector<uint32_t>* out) const {
    out->clear();
    for (int dx = -radius; dx <= radius; ++dx) {
      for (int dy = -radius; dy <= radius; ++dy) {
        int x = cx + dx;
        int y = cy + dy;
        if (x < 0 || y < 0 || x >= grid_size_ || y >= grid_size_) continue;
        auto it = cells_.find(CellKey(x, y));
        if (it != cells_.end()) {
          out->insert(out->end(), it->second.begin(), it->second.end());
        }
      }
    }
  }

  double CellEdge(int d) const { return span_[d] / grid_size_; }

 private:
  int grid_size_;
  double min_[2], max_[2], span_[2];
  std::unordered_map<uint64_t, std::vector<uint32_t>> cells_;
};

}  // namespace

StringMapEmbedding::StringMapEmbedding(int dimensions, uint64_t seed)
    : dimensions_(dimensions), seed_(seed) {
  SABLOCK_CHECK(dimensions_ >= 2);
}

std::vector<std::vector<double>> StringMapEmbedding::Embed(
    const std::vector<std::string>& strings) {
  const size_t n = strings.size();
  std::vector<std::vector<double>> points(
      n, std::vector<double>(static_cast<size_t>(dimensions_), 0.0));
  if (n == 0) return points;
  sablock::Rng rng(seed_);

  for (int axis = 0; axis < dimensions_; ++axis) {
    // Farthest-pair heuristic: start random, walk to the farthest string a
    // couple of times.
    size_t p1 = rng.UniformIndex(n);
    size_t p2 = p1;
    for (int iter = 0; iter < 2; ++iter) {
      double best = -1.0;
      for (size_t i = 0; i < n; ++i) {
        double d = Dist(strings[p1], strings[i]);
        if (d > best) {
          best = d;
          p2 = i;
        }
      }
      std::swap(p1, p2);
    }
    double d12 = Dist(strings[p1], strings[p2]);
    if (d12 <= 0.0) {
      // All remaining strings identical on this axis; coordinates stay 0.
      continue;
    }
    double d12_sq = d12 * d12;
    for (size_t i = 0; i < n; ++i) {
      double d1 = Dist(strings[i], strings[p1]);
      double d2 = Dist(strings[i], strings[p2]);
      points[i][static_cast<size_t>(axis)] =
          (d1 * d1 + d12_sq - d2 * d2) / (2.0 * d12);
    }
  }
  return points;
}

StringMapThreshold::StringMapThreshold(std::vector<std::string> attributes,
                                       double threshold, int grid_size,
                                       int dimensions, uint64_t seed)
    : attributes_(std::move(attributes)),
      threshold_(threshold),
      grid_size_(grid_size),
      dimensions_(dimensions),
      seed_(seed) {
  SABLOCK_CHECK(threshold_ > 0.0 && threshold_ <= 1.0);
}

std::string StringMapThreshold::name() const {
  return "StMT(t=" + sablock::FormatDouble(threshold_, 2) +
         ",g=" + std::to_string(grid_size_) +
         ",d=" + std::to_string(dimensions_) + ")";
}

void StringMapThreshold::Run(const data::Dataset& dataset,
                             core::BlockSink& sink) const {
  KeyBuilder keys(dataset, attributes_);
  std::vector<std::string> bkvs(dataset.size());
  double avg_len = 0.0;
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    bkvs[id] = keys.Key(id);
    avg_len += static_cast<double>(bkvs[id].size());
  }
  if (!bkvs.empty()) avg_len /= static_cast<double>(bkvs.size());

  StringMapEmbedding embedding(dimensions_, seed_);
  std::vector<std::vector<double>> points = embedding.Embed(bkvs);

  // A similarity threshold t corresponds to an edit-distance radius of
  // (1 - t) · avg_len in the embedded space.
  double radius = std::max((1.0 - threshold_) * avg_len, 0.5);
  double radius_sq = radius * radius;

  Grid2D grid(points, grid_size_);
  // How many cells the radius spans on the coarser of the two grid axes.
  double edge = std::min(grid.CellEdge(0), grid.CellEdge(1));
  int cell_radius =
      std::clamp(static_cast<int>(std::ceil(radius / edge)), 1, 8);

  std::vector<uint32_t> cands;
  std::vector<data::RecordId> block;
  for (uint32_t id = 0; id < points.size(); ++id) {
    if (sink.Done()) return;
    int cx = grid.Coord(points[id], 0);
    int cy = grid.Coord(points[id], 1);
    block.assign(1, id);
    grid.Neighbourhood(cx, cy, cell_radius, &cands);
    for (uint32_t other : cands) {
      if (other <= id) continue;  // emit each pair once (from its lower id)
      if (SquaredEuclidean(points[id], points[other]) <= radius_sq) {
        block.push_back(other);
      }
    }
    if (block.size() >= 2) sink.Consume(block);
  }
}

StringMapNearestNeighbour::StringMapNearestNeighbour(
    std::vector<std::string> attributes, int num_neighbours, int grid_size,
    int dimensions, uint64_t seed)
    : attributes_(std::move(attributes)),
      num_neighbours_(num_neighbours),
      grid_size_(grid_size),
      dimensions_(dimensions),
      seed_(seed) {
  SABLOCK_CHECK(num_neighbours_ >= 1);
}

std::string StringMapNearestNeighbour::name() const {
  return "StMNN(nn=" + std::to_string(num_neighbours_) +
         ",g=" + std::to_string(grid_size_) +
         ",d=" + std::to_string(dimensions_) + ")";
}

void StringMapNearestNeighbour::Run(const data::Dataset& dataset,
                                    core::BlockSink& sink) const {
  KeyBuilder keys(dataset, attributes_);
  std::vector<std::string> bkvs(dataset.size());
  for (data::RecordId id = 0; id < dataset.size(); ++id) {
    bkvs[id] = keys.Key(id);
  }
  StringMapEmbedding embedding(dimensions_, seed_);
  std::vector<std::vector<double>> points = embedding.Embed(bkvs);
  Grid2D grid(points, grid_size_);

  const size_t nn = static_cast<size_t>(num_neighbours_);
  std::vector<uint32_t> cands;
  std::vector<std::pair<double, uint32_t>> scored;
  std::vector<data::RecordId> block;
  for (uint32_t id = 0; id < points.size(); ++id) {
    if (sink.Done()) return;
    int cx = grid.Coord(points[id], 0);
    int cy = grid.Coord(points[id], 1);
    // Expand the search ring until enough candidates are gathered (or the
    // ring is maximal).
    for (int radius = 1; radius <= 8; ++radius) {
      grid.Neighbourhood(cx, cy, radius, &cands);
      if (cands.size() > nn) break;
    }
    scored.clear();
    for (uint32_t other : cands) {
      if (other == id) continue;
      scored.emplace_back(SquaredEuclidean(points[id], points[other]), other);
    }
    size_t keep = std::min(scored.size(), nn);
    if (keep == 0) continue;
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<ptrdiff_t>(keep),
                      scored.end());
    block.assign(1, id);
    for (size_t i = 0; i < keep; ++i) block.push_back(scored[i].second);
    sink.Consume(block);
  }
}

}  // namespace sablock::baselines
