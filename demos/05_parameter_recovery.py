"""Recovering (t, z, J) from a black-box order isomorphism.

Given only an evaluation callback on the invertible effects, the induced
positive-cone map is linear of the form U_y J; probing it on a basis
recovers y, then J, then canonical closed-form parameters.
"""

import numpy as np

import effectorder as eo

factor = eo.HermFactor(3, eo.Ring.COMPLEX)
alg = eo.single_factor(factor)
rng = np.random.default_rng(42)

secret = eo.random_factor_iso(factor, rng)
print(f"secret parameters: t = {secret.t:.6f}, conjugate-linear J: {secret.jordan.conjugate}")

# hand only the callable to the recovery routine
recovered = eo.recover_factor_iso(secret.apply, alg, alg, seed=0)
print(f"recovered:         t = {recovered.t:.6f}, conjugate-linear J: {recovered.jordan.conjugate}")

worst = 0.0
for _ in range(50):
    x = eo.sample_element(alg, rng, "invertible_effect")
    worst = max(worst, eo.sup_norm(recovered.apply(x) - secret.apply(x)))
print("reproduction error on 50 fresh inputs:", worst)

# note: the recovered t need not equal the secret t; the parameterization
# is unique only up to the choice of lambda, and both triples induce the
# same map.  Composition also lands back in the family, and its canonical
# parameters are built in closed form from the two cone maps, with no probe:
other = eo.random_factor_iso(factor, rng)
canonical = secret.compose(other)
x = eo.sample_element(alg, rng, "invertible_effect")
print("canonical form of a composition, residual:",
      eo.sup_norm(canonical.apply(x) - secret.apply(other.apply(x))))
print("its inverse, residual:",
      eo.sup_norm(canonical.inverted().apply(canonical.apply(x)) - x))

# a map that is NOT of the closed form is rejected: here its cone map fails
# the probe that tells linear from conjugate-linear J; a map that passes the
# probes is refused when the recovered map disagrees with it at held-out points
try:
    eo.recover_factor_iso(
        lambda v: eo.apply_function(v, lambda s: s * s), alg, alg
    )
except eo.RecoveryError as exc:
    print("non-conforming map rejected:", exc)
