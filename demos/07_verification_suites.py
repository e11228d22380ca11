"""Running the seeded verification suites and reading their reports.

Each suite checks a family of identities on seeded random inputs and is
deterministic in (seed, algebra, trials).  The self-test mode injects a
defect to prove the suite can fail.
"""

import effectorder as eo

alg = eo.algebra(eo.HermFactor(1), eo.HermFactor(3), eo.SpinFactor(4))

print(eo.render_report(eo.run_identity_suite(alg, seed=42, trials=100)))
print()
print(eo.render_report(eo.run_interval_suite(alg, seed=42, trials=50)))
print()
print(eo.render_report(eo.run_order_iso_suite(alg, seed=42, trials=50)))
print()

factor = eo.HermFactor(1)
oracle_params = eo.FactorOrderIso(
    0.5, eo.element_in_factor(factor, [[2.0]]), eo.identity_jordan(factor)
)
print(eo.render_report(eo.scalar_oracle_compare(2001, oracle_params)))
print()

# self-test: a sign flip in the fundamental identity must be caught
mutated = eo.run_identity_suite(alg, seed=42, trials=20, mutate=True)
print("mutated identity suite passed?", mutated.passed, " (expected False)")

# reports serialize alongside algebras, elements, and isomorphisms
text = eo.dump_document(eo.run_identity_suite(alg, seed=1, trials=10))
print("\nserialized report preview:")
print("\n".join(text.splitlines()[:12]))
