#include "support/random.hh"

#include <cmath>

#include "support/logging.hh"

namespace vax
{

WeightTable::WeightTable(std::vector<double> weights)
    : w_(std::move(weights))
{
    for (double w : w_) {
        upc_assert(w >= 0.0);
        total_ += w;
    }
    upc_assert(total_ > 0.0);
}

Rng::Rng(uint64_t seed)
    : state_(seed ? seed : 0x9e3779b97f4a7c15ULL)
{
    // Warm the state so that small seeds diverge quickly.
    for (int i = 0; i < 4; ++i)
        next();
}

int32_t
Rng::range(int32_t lo, int32_t hi)
{
    upc_assert(lo <= hi);
    uint32_t span = static_cast<uint32_t>(hi - lo) + 1;
    return lo + static_cast<int32_t>(span == 0 ? next() : below(span));
}

uint32_t
Rng::geometric(double mean)
{
    upc_assert(mean >= 1.0);
    // Geometric on {1, 2, ...} with the requested mean has success
    // probability 1/mean.
    double p = 1.0 / mean;
    double u = uniform();
    // Inverse CDF; guard the log against u == 0.
    double v = std::log(1.0 - u) / std::log(1.0 - p);
    uint32_t n = 1 + static_cast<uint32_t>(v);
    uint32_t cap = static_cast<uint32_t>(64.0 * mean);
    return n > cap ? cap : n;
}

} // namespace vax
