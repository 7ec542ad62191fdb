/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of randomness in the simulator and workload generator
 * draws from a seeded Xorshift64* stream so that all experiments are
 * reproducible bit-for-bit.
 */

#ifndef UPC780_SUPPORT_RANDOM_HH
#define UPC780_SUPPORT_RANDOM_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "support/logging.hh"

namespace vax
{

/**
 * A weight table for Rng::pickWeighted with its sum precomputed.
 *
 * Build one per fixed weight list and pick from it repeatedly.  The
 * sum is accumulated left to right from 0.0; which index a draw lands
 * on depends on that order, so it is part of the draw contract.
 */
class WeightTable
{
  public:
    WeightTable(std::initializer_list<double> weights)
        : WeightTable(std::vector<double>(weights))
    {
    }

    /** @param weights Non-negative; at least one must be > 0. */
    explicit WeightTable(std::vector<double> weights);

    size_t size() const { return w_.size(); }
    double operator[](size_t i) const { return w_[i]; }
    double total() const { return total_; }

  private:
    std::vector<double> w_;
    double total_ = 0.0;
};

/**
 * Xorshift64* generator.
 *
 * Small, fast, and deterministic; quality is more than adequate for
 * workload synthesis.
 */
class Rng
{
  public:
    /** Construct from a nonzero seed (0 is remapped internally). */
    explicit Rng(uint64_t seed = 0x780aceULL);

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t x = state_;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state_ = x;
        return x * 0x2545f4914f6cdd1dULL;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint32_t
    below(uint32_t bound)
    {
        upc_assert(bound > 0);
        return static_cast<uint32_t>(next() % bound);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int32_t range(int32_t lo, int32_t hi);

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0); // 2^53
    }

    /**
     * Geometric-ish positive count with the given mean (>= 1).
     *
     * Used for loop trip counts and string lengths; truncated at
     * 64 * mean to bound workload run time.
     */
    uint32_t geometric(double mean);

    /**
     * Pick an index according to a weight table: one uniform() draw
     * scaled by the total, then the weights subtracted in order
     * until it goes negative.  The subtraction order is part of the
     * draw contract: cumulative or alias tables would round
     * differently and change which index some draws land on.
     *
     * @return Index in [0, weights.size()).
     */
    size_t
    pickWeighted(const WeightTable &weights)
    {
        double r = uniform() * weights.total();
        for (size_t i = 0; i < weights.size(); ++i) {
            r -= weights[i];
            if (r < 0.0)
                return i;
        }
        return weights.size() - 1;
    }

    /** @{ Raw generator state, for checkpoint/restore: restoring the
     *  state restores the exact future draw stream, which is what
     *  makes a resumed simulation bit-identical to an uninterrupted
     *  one.  setState() bypasses the constructor's warm-up. */
    uint64_t state() const { return state_; }
    void setState(uint64_t s) { state_ = s ? s : 1; }
    /** @} */

  private:
    uint64_t state_;
};

} // namespace vax

#endif // UPC780_SUPPORT_RANDOM_HH
