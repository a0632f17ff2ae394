// Parameterized property sweeps over the pattern generators: rate fidelity
// for Poisson-driven patterns and structural invariants for all archetypes
// used by the workload builder.

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "trace/patterns.hpp"

namespace pulse::trace {
namespace {

class PoissonRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonRateSweep, EmpiricalRateWithinFivePercent) {
  const double rate = GetParam();
  Trace t(1, 40000);
  util::Pcg32 rng(77);
  steady_poisson(rate)->generate(t, 0, rng);
  const double measured = static_cast<double>(t.total_invocations()) / 40000.0;
  EXPECT_NEAR(measured, rate, rate * 0.05 + 0.002) << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, PoissonRateSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 1.0, 2.5));

class PeriodSweep : public ::testing::TestWithParam<Minute> {};

TEST_P(PeriodSweep, InvocationCountMatchesPeriod) {
  const Minute period = GetParam();
  Trace t(1, 10000);
  util::Pcg32 rng(3);
  periodic(period, 0, 0, 0.0)->generate(t, 0, rng);
  const auto expected = static_cast<std::uint64_t>((10000 + period - 1) / period);
  EXPECT_EQ(t.total_invocations(), expected);
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodSweep,
                         ::testing::Values(Minute{1}, Minute{2}, Minute{7}, Minute{13},
                                           Minute{60}));

struct ArchetypeCase {
  const char* label;
  PatternPtr (*make)();
};

// Without this, gtest prints the case as raw bytes, which include the two
// pointers; the listed test names would then change with every process start.
void PrintTo(const ArchetypeCase& c, std::ostream* os) { *os << c.label; }

PatternPtr make_poisson() { return steady_poisson(0.3); }
PatternPtr make_periodic() { return periodic(5, 1, 1, 0.05); }
PatternPtr make_diurnal() { return diurnal(0.05, 1.0); }
PatternPtr make_nocturnal() { return diurnal(0.05, 1.0, 14 * 60, true); }
PatternPtr make_bursty() { return bursty(0.1, 0.01, 5, 4.0); }
PatternPtr make_heavy() { return heavy_tail(2.0, 1.4); }
PatternPtr make_intermittent() { return intermittent(40, 60, 0.7); }
PatternPtr make_drifting() {
  return drifting(periodic(3), steady_poisson(0.3), periodic(9));
}

class ArchetypeSweep : public ::testing::TestWithParam<ArchetypeCase> {};

TEST_P(ArchetypeSweep, StructuralInvariants) {
  const auto& param = GetParam();
  Trace t(2, 3 * kMinutesPerDay);
  util::Pcg32 rng(11);
  const PatternPtr pattern = param.make();
  pattern->generate(t, 0, rng);

  // Generates activity, only on the requested function, inside the horizon.
  EXPECT_GT(t.total_invocations(0), 0u) << param.label;
  EXPECT_EQ(t.total_invocations(1), 0u) << param.label;

  // Deterministic for a fixed RNG state.
  Trace t2(2, 3 * kMinutesPerDay);
  util::Pcg32 rng2(11);
  param.make()->generate(t2, 0, rng2);
  EXPECT_EQ(t.total_invocations(0), t2.total_invocations(0)) << param.label;

  // Non-empty label.
  EXPECT_FALSE(pattern->label().empty()) << param.label;
}

INSTANTIATE_TEST_SUITE_P(
    Archetypes, ArchetypeSweep,
    ::testing::Values(ArchetypeCase{"poisson", &make_poisson},
                      ArchetypeCase{"periodic", &make_periodic},
                      ArchetypeCase{"diurnal", &make_diurnal},
                      ArchetypeCase{"nocturnal", &make_nocturnal},
                      ArchetypeCase{"bursty", &make_bursty},
                      ArchetypeCase{"heavy", &make_heavy},
                      ArchetypeCase{"intermittent", &make_intermittent},
                      ArchetypeCase{"drifting", &make_drifting}),
    [](const ::testing::TestParamInfo<ArchetypeCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace pulse::trace
