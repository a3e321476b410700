#include "inputs.h"

#include "data/generator.h"
#include "util/random.h"

namespace perfbench {

namespace sdata = simsub::data;
namespace geo = simsub::geo;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

sdata::Dataset MakeCorpus(int count, uint64_t seed) {
  return sdata::GenerateDataset(sdata::DatasetKind::kPorto, count, seed);
}

std::vector<geo::Trajectory> MakeHeldOutQueries(int count, int min_len,
                                                int max_len, uint64_t seed) {
  simsub::util::Rng rng(seed);
  sdata::TaxiModel model = sdata::PortoModel();
  model.min_length = max_len;  // every source trip is long enough to slice
  std::vector<geo::Trajectory> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int length =
        min_len + static_cast<int>(static_cast<int64_t>(i) *
                                   (max_len - min_len + 1) / count);
    const int64_t id = 1'000'000 + i;
    geo::Trajectory trip = sdata::GenerateTaxiTrajectory(model, rng, id);
    const int64_t start = rng.UniformInt(0, trip.size() - length);
    queries.push_back(trip.Slice(geo::SubRange(start, start + length - 1)));
  }
  return queries;
}

}  // namespace perfbench
