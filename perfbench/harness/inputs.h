// Benchmark inputs, all derived from the run's --seed: a Porto-like corpus
// and held-out query trajectories drawn from a separate generator stream,
// so no query is a corpus member (the corpus sampler in data/workload.h
// returns corpus trajectories, whose top-1 is the query itself at distance
// 0, and an approximation ratio over such answers divides by zero).
#ifndef SIMSUB_PERFBENCH_INPUTS_H_
#define SIMSUB_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "geo/trajectory.h"

namespace perfbench {

/// Independent 64-bit streams from one run seed (splitmix64 finalizer).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// `count` Porto-like taxi trajectories.
simsub::data::Dataset MakeCorpus(int count, uint64_t seed);

/// `count` held-out queries whose lengths step evenly through
/// [min_len, max_len], so every seed sees the same length mix: each is a
/// slice at a random offset of a fresh taxi trajectory from `seed`'s own
/// stream. Query ids start at 1'000'000, past every corpus id.
std::vector<simsub::geo::Trajectory> MakeHeldOutQueries(int count, int min_len,
                                                        int max_len,
                                                        uint64_t seed);

}  // namespace perfbench

#endif  // SIMSUB_PERFBENCH_INPUTS_H_
