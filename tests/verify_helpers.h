#ifndef KJOIN_TESTS_VERIFY_HELPERS_H_
#define KJOIN_TESTS_VERIFY_HELPERS_H_

// Test-side shorthand over Verifier's one verify entry point: verifies a
// single pair at the verifier's configured tau, with both grouping plans
// built fresh for the pair.

#include "core/object.h"
#include "core/verifier.h"

namespace kjoin::test {

inline bool VerifyWithFreshPlans(const Verifier& verifier, const Object& x, const Object& y,
                                 VerifyStats* stats) {
  ObjectGroupPlan plan_x;
  ObjectGroupPlan plan_y;
  verifier.BuildPlan(x, &plan_x);
  verifier.BuildPlan(y, &plan_y);
  return verifier.Verify(x, y, plan_x, plan_y, verifier.options().tau, stats);
}

}  // namespace kjoin::test

#endif  // KJOIN_TESTS_VERIFY_HELPERS_H_
