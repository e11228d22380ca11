"""Seeded property suites verifying the algebraic identities and the
order-isomorphism constructions numerically, with independent oracles.

Each suite draws its inputs from a single seeded generator, so a report
is a pure function of (seed, algebra, trials): rendering one twice gives
byte-identical text (elapsed time excluded).  Every suite also has a
self-test mode (``mutate=True``) that injects one defect into a checked
identity, demonstrating that the suite can fail.

The seeded suites are trial functions run by one engine, ``_run_trials``,
which owns the generator, the timer and the report.  A trial returns one
residual per check name, so a check's ``worst_trial`` is a trial index:
rerunning with ``trials = worst_trial + 1`` reproduces its residual.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    HermFactor,
    Ring,
    _seed,
    _size,
    element_in_factor,
    jordan_product,
    quad_rep,
    single_factor,
    sup_norm,
    triple_product,
    unit,
    zero,
)
from .isomorphisms import (
    FactorOrderIso,
    coordinate_squeeze_iso,
    identity_jordan,
    interior_iso_apply,
    interval_top_map,
    mobius_apply,
    mobius_compose,
    mobius_scalar,
    params_from_cone_map,
)
from .order import proj_join, proj_meet
from .sampling import (
    random_composite_iso,
    random_jordan_iso,
    sample_atom,
    sample_element,
    sample_ordered_pair,
)
from .spectral import (
    apply_function,
    block_eigenvalues,
    extreme_eigenvalues,
    invert_element,
    max_eigenvalue,
    min_eigenvalue,
    positive_min_eigenvalue,
    range_approximants,
    range_projection,
    spectral_decompose,
)


def _worst(*residuals: float) -> float:
    """The largest residual, NaN if any is NaN (``max`` may drop a NaN)."""
    return float(np.max(residuals))


@dataclass
class CheckResult:
    """Outcome of one named check: trial counts, the worst residual, and
    the index of the trial that gave it (None before the first record).

    A suite records a check at most once per trial, and in every trial or
    in none, so the number of earlier records is the trial index."""

    name: str
    tol: float
    passes: int = 0
    fails: int = 0
    worst: float = 0.0
    worst_trial: int | None = None

    def record(self, residual: float) -> None:
        residual = float(residual)
        # NaN is worse than any number; ties keep the earlier trial
        if self.worst_trial is None or residual > self.worst or (
            math.isnan(residual) and not math.isnan(self.worst)
        ):
            self.worst = _worst(self.worst, residual)
            self.worst_trial = self.passes + self.fails
        if residual <= self.tol:
            self.passes += 1
        else:
            self.fails += 1


@dataclass
class SuiteReport:
    """Deterministic (seed, algebra, trials) -> results record."""

    suite: str
    descriptor: str
    seed: int
    trials: int
    tol: float
    checks: tuple[CheckResult, ...]
    elapsed_seconds: float
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.fails == 0 for c in self.checks)

    @property
    def worst_residual(self) -> float:
        return _worst(0.0, *(c.worst for c in self.checks))


def render_report(report: SuiteReport, include_elapsed: bool = True) -> str:
    head = (
        f"suite {report.suite}  [{report.descriptor}]  seed={report.seed} "
        f"trials={report.trials} tol={report.tol:g}  "
        f"{'PASS' if report.passed else 'FAIL'}  worst={report.worst_residual:.3e}"
    )
    if include_elapsed:
        head += f"  ({report.elapsed_seconds:.2f}s)"
    lines = [head]
    for c in report.checks:
        lines.append(
            f"  {c.name:<28} {c.passes:>5} pass {c.fails:>3} fail"
            f"  worst={c.worst:.3e} trial={'-' if c.worst_trial is None else c.worst_trial}"
            f"  tol={c.tol:g}"
        )
    for key, val in report.data.items():
        lines.append(f"  # {key}: {val}")
    return "\n".join(lines)


def _rel(a: Element, b: Element) -> float:
    return sup_norm(a - b) / (1.0 + sup_norm(b))


def _clamp_away_from_zero(y: Element, floor: float = 0.2) -> Element:
    """Push the spectrum away from zero, keeping signs: an invertible
    element deterministically derived from y."""
    return apply_function(y, lambda v: v if abs(v) >= floor else (floor if v >= 0 else -floor))


def _normalized_general(alg: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    g = sample_element(alg, rng, "general")
    lo, hi = extreme_eigenvalues(g)
    m = max(abs(lo), abs(hi), 1e-9)
    return (1.5 / m) * g


def _report(suite, descriptor, seed, trials, tol, checks, records, data=None) -> SuiteReport:
    """The one builder of reports: the checks in report order (a ``(name,
    tol)`` pair gives a check its own tolerance), recorded from
    ``records``, an iterable of ``{check name: residual}`` drawn inside
    the timer, so that a check is recorded at most once per record.
    ``data`` may be filled while the records are drawn.  First ``seed`` and ``trials``
    are read as ints (``_seed``, ``_size``), ``tol`` as a float, and negative ``trials`` refused."""
    seed, trials, tol = _seed(seed), _size(trials, "trials"), float(tol)
    if trials < 0:
        raise ValueError(f"trials must be a count (>= 0), got {trials}")
    t0 = time.perf_counter()
    results = {}
    for check in checks:
        name, check_tol = (check, tol) if isinstance(check, str) else check
        results[name] = CheckResult(name, check_tol)
    for record in records:
        for name, residual in record.items():
            results[name].record(residual)
    elapsed = time.perf_counter() - t0
    return SuiteReport(
        suite, descriptor, seed, trials, tol, tuple(results.values()), elapsed, data or {}
    )


def _run_trials(suite, descriptor, seed, trials, tol, checks, trial) -> SuiteReport:
    """The loop of every seeded suite: ``trials`` calls of ``trial(rng)``, one record each, for
    one generator seeded with ``seed``, drawn once :func:`_report` has read both."""

    def records():
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            yield trial(rng)

    return _report(suite, descriptor, seed, trials, tol, checks, records())


def _horner(cf: list[float], v: float) -> float:
    """np.polyval(cf, v) on floats, bit for bit: Horner from 0.0, highest degree first."""
    y = 0.0
    for c in cf:
        y = y * v + c
    return y


def run_identity_suite(
    alg: AlgebraDescriptor,
    seed: int = 0,
    trials: int = 200,
    tol: float = 1e-8,
    mutate: bool = False,
) -> SuiteReport:
    """Check the quadratic-representation identities and the two
    functional-calculus commutation rules on seeded random inputs.

    ``mutate=True`` flips a sign in the fundamental identity
    U_{U_y x} = U_y U_x U_y to demonstrate the suite can fail.
    """
    e = unit(alg)

    def trial(rng: np.random.Generator) -> dict[str, float]:
        res = {}
        y = _normalized_general(alg, rng)
        x_cone = sample_element(alg, rng, "cone")
        w = _normalized_general(alg, rng)

        uy_x = quad_rep(y, x_cone)
        res["cone_preserved"] = _worst(0.0, -min_eigenvalue(uy_x)) / (1.0 + sup_norm(uy_x))

        yi = _clamp_away_from_zero(y)
        yi_inv = invert_element(yi, "strict")
        res["inverse_of_map"] = _rel(quad_rep(yi_inv, quad_rep(yi, w)), w)

        xi = _clamp_away_from_zero(_normalized_general(alg, rng))
        lhs = invert_element(quad_rep(yi, xi), "strict")
        rhs = quad_rep(yi_inv, invert_element(xi, "strict"))
        res["inverse_of_image"] = _rel(lhs, rhs)

        x = _normalized_general(alg, rng)
        lhs = quad_rep(quad_rep(y, x), w)
        rhs = quad_rep(y, quad_rep(x, quad_rep(y, w)))
        if mutate:
            rhs = -1.0 * rhs
        res["fundamental_identity"] = _rel(lhs, rhs)

        res["square_of_unit_image"] = _rel(quad_rep(y, e), jordan_product(y, y))

        cf = rng.uniform(-1.0, 1.0, size=5).tolist()
        cg = rng.uniform(-1.0, 1.0, size=5).tolist()
        f = lambda v: _horner(cf, v)  # noqa: E731
        g = lambda v: _horner(cg, v)  # noqa: E731
        fy = apply_function(y, f)
        gy = apply_function(y, g)
        lhs = quad_rep(fy, quad_rep(gy, w))
        rhs = quad_rep(apply_function(y, lambda v: f(v) * g(v)), w)
        res["calc_compose"] = _rel(lhs, rhs)
        lhs = quad_rep(fy, gy)
        rhs = apply_function(y, lambda v: f(v) ** 2 * g(v))
        res["calc_push_through"] = _rel(lhs, rhs)

        res["triple_vs_matrix"] = _rel(triple_product(y, w, y), quad_rep(y, w))
        return res

    checks = (
        "cone_preserved",
        "inverse_of_map",
        "inverse_of_image",
        "fundamental_identity",
        "square_of_unit_image",
        "calc_compose",
        "calc_push_through",
        "triple_vs_matrix",
    )
    return _run_trials("identity", str(alg), seed, trials, tol, checks, trial)


def run_interval_suite(
    alg: AlgebraDescriptor,
    seed: int = 0,
    trials: int = 100,
    tol: float = 1e-8,
    mutate: bool = False,
) -> SuiteReport:
    """Interval stretching round trips, exact stabilization of the
    truncated inverse-square-root family, monotone approximation of
    effects from inside the invertible part, and projection-lattice laws.

    ``mutate=True`` perturbs the backward stretch to break round trips.
    """
    e = unit(alg)

    def trial(rng: np.random.Generator) -> dict[str, float]:
        res = {}
        c = sample_element(alg, rng, "cone")
        eigs = spectral_decompose(c).eigenvalues
        cut = eigs[len(eigs) // 2]
        x = apply_function(c, lambda v: v if v > cut else 0.0)
        if sup_norm(x) < 1e-9:
            x = c
        rx = range_projection(x)
        y = quad_rep(rx, sample_element(alg, rng, "effect"))
        fwd = interval_top_map(x, y, "forward")
        back = interval_top_map(x, fwd, "backward")
        if mutate:
            back = back + 1e-3 * e
        res["stretch_roundtrip_fb"] = _rel(back, y)

        y2 = interval_top_map(x, quad_rep(rx, sample_element(alg, rng, "effect")), "forward")
        res["stretch_roundtrip_bf"] = _rel(
            interval_top_map(x, interval_top_map(x, y2, "backward"), "forward"), y2
        )

        lam_plus = positive_min_eigenvalue(x)
        n_star = int(1.0 / lam_plus) + 2 if np.isfinite(lam_plus) else 1
        _, g_n, h_n = range_approximants(x, n_star)
        res["stabilize_exact"] = _worst(sup_norm(g_n - rx), sup_norm(h_n - rx))

        w = sample_element(alg, rng, "effect")
        prev = None
        worst_mono, worst_dist = 0.0, 0.0
        for n in range(1, 9):
            fn = apply_function(w, lambda v: max(v, 1.0 / n))
            worst_dist = _worst(worst_dist, sup_norm(fn - w) - 1.0 / n)
            if prev is not None:
                worst_mono = _worst(worst_mono, -min_eigenvalue(prev - fn))
            prev = fn
        res["approx_monotone"] = worst_mono
        res["approx_distance"] = worst_dist

        r = sample_element(alg, rng, "projection")
        p = proj_join(sample_element(alg, rng, "projection"), r)
        q = proj_join(sample_element(alg, rng, "projection"), r)
        m = proj_meet(p, q)
        j = proj_join(p, q)
        res["lattice_bounds"] = _worst(
            0.0,
            -min_eigenvalue(p - m),
            -min_eigenvalue(q - m),
            -min_eigenvalue(j - p),
            -min_eigenvalue(j - q),
            sup_norm(jordan_product(m, m) - m),
        )
        low = quad_rep(r, sample_element(alg, rng, "effect"))
        res["lattice_lower_witness"] = _worst(0.0, -min_eigenvalue(m - low))
        return res

    checks = (
        "stretch_roundtrip_fb",
        "stretch_roundtrip_bf",
        "approx_monotone",
        "approx_distance",
        "lattice_bounds",
        "lattice_lower_witness",
        ("stabilize_exact", 1e-12),
    )
    return _run_trials("interval", str(alg), seed, trials, tol, checks, trial)


def run_order_iso_suite(
    source: AlgebraDescriptor,
    target: AlgebraDescriptor | None = None,
    seed: int = 0,
    trials: int = 200,
    tol: float = 1e-8,
    mutate: bool = False,
) -> SuiteReport:
    """Random composite order isomorphisms: order preservation in both
    directions, endpoint rigidity, invariance of the invertible part,
    rank-one image of scaled atoms, round trips, the Mobius group law,
    agreement of the interior form with the closed form, and agreement
    of boundary values with the monotone limit from inside (0, e].

    ``mutate=True`` perturbs the inverse map to break round trips.
    """
    if target is None:
        target = source
    e_m, e_n = unit(source), unit(target)

    def trial(rng: np.random.Generator) -> dict[str, float]:
        res = {}
        iso = random_composite_iso(source, target, rng)

        x, y = sample_ordered_pair(source, rng)
        fx, fy = iso.apply(x), iso.apply(y)
        res["order_forward"] = _worst(0.0, -min_eigenvalue(fy - fx)) / (1.0 + sup_norm(fy))
        u, v = sample_ordered_pair(target, rng)
        gu, gv = iso.inverse_apply(u), iso.inverse_apply(v)
        res["order_backward"] = _worst(0.0, -min_eigenvalue(gv - gu)) / (1.0 + sup_norm(gv))

        res["endpoints"] = _worst(
            sup_norm(iso.apply(zero(source))), sup_norm(iso.apply(e_m) - e_n)
        )

        w = sample_element(source, rng, "effect")
        back = iso.inverse_apply(iso.apply(w))
        if mutate:
            back = back + 1e-3 * e_m
        res["roundtrip"] = _rel(back, w)

        g = sample_element(source, rng, "general")
        x_inv = apply_function(g, lambda v: min(max(v, 1e-3), 1.0))
        res["invertible_floor"] = _worst(0.0, 1e-12 - min_eigenvalue(iso.apply(x_inv)))

        rank_one = []
        for (i, _), fiso in zip(iso.engaged_pairs, iso.engaged_isos):
            factor = source.factors[i]
            p = sample_atom(factor, rng)
            lam = float(rng.uniform(0.01, 1.0))
            img = fiso.apply(lam * p)
            eigs = block_eigenvalues(img.algebra.factors[0], img._block(0))
            rank_one.append(float(eigs[-2]))  # an engaged block has two eigenvalues or more
        if rank_one:
            res["atom_rank_one"] = _worst(0.0, *rank_one)

        t, s = float(rng.uniform(-2.5, 0.9)), float(rng.uniform(-2.5, 0.9))
        x_eff = sample_element(source, rng, "effect")
        lhs = mobius_apply(t, mobius_apply(s, x_eff))
        rhs = mobius_apply(mobius_compose(t, s), x_eff)
        res["mobius_group_law"] = sup_norm(lhs - rhs)

        if target.engaged_indices:
            j = target.engaged_indices[0]
            factor = target.factors[j]
            falg = single_factor(factor)
            yf = apply_function(
                sample_element(falg, rng, "general"), lambda v: min(max(v, 0.3), 1.7)
            )
            jord = random_jordan_iso(factor, rng)
            xf = sample_element(falg, rng, "invertible_effect")
            ref = interior_iso_apply(yf, xf, jord)
            lam0 = 1.0 + max_eigenvalue(jordan_product(yf, yf))
            worst = 0.0
            for lam in (lam0, lam0 + 1.0):
                got = params_from_cone_map(yf, jord, lam).apply(xf)
                worst = _worst(worst, _rel(got, ref))
            res["lift_param_agree"] = worst

            # boundary values agree with the monotone limit from the
            # invertible part: f(max(x, 1/n)) is a decreasing sequence
            # above f(x) whose gap strictly shrinks (the rate depends on
            # the parameters, so only the order facts are asserted)
            i = next(a for a, b in iso.engaged_pairs if b == j)
            fiso = iso.engaged_isos[iso.engaged_pairs.index((i, j))]
            salg = single_factor(source.factors[i])
            gg = sample_element(salg, rng, "general")
            cut = spectral_decompose(gg).eigenvalues[0]  # keep some kernel
            xs = apply_function(gg, lambda v: min(max(v, 0.0), 1.0) if v > cut else 0.0)
            fx = fiso.apply(xs)
            gaps, mono = [], 0.0
            prev = fx
            for n in (512, 64, 8):
                fxn = fiso.apply(apply_function(xs, lambda v: max(v, 1.0 / n)))
                mono = _worst(mono, -min_eigenvalue(fxn - prev))
                gaps.append(sup_norm(fxn - fx))
                prev = fxn
            decay = _worst(0.0, gaps[0] - _worst(0.9 * gaps[-1], 1e-9))
            res["boundary_monotone_limit"] = _worst(mono, decay)
        return res

    checks = (
        "order_forward",
        "order_backward",
        "roundtrip",
        "atom_rank_one",
        "lift_param_agree",
        "boundary_monotone_limit",
        ("endpoints", 1e-12),
        ("invertible_floor", 0.0),
        ("mobius_group_law", 1e-9),
    )
    return _run_trials("order_iso", f"{source} -> {target}", seed, trials, tol, checks, trial)


def scalar_oracle_compare(
    grid_size: int,
    iso: FactorOrderIso,
    tol: float = 1e-12,
    mutate: bool = False,
) -> SuiteReport:
    """Compare the library evaluation of the closed-form map against
    plain floating-point arithmetic.

    The parameters must live on the one-dimensional Hermitian factor;
    a second check reduces a diagonal 2x2 problem coordinatewise.
    ``mutate=True`` shifts the oracle's Mobius parameter.
    """
    factor = iso.algebra.factors[0]
    if factor != HermFactor(1, Ring.REAL):
        raise ValueError("oracle comparison expects parameters over herm(1,R)")
    if grid_size < 2:
        raise ValueError("grid must have at least 2 points")
    t = iso.t + (1e-3 if mutate else 0.0)
    z0 = float(iso.z._block(0)[0, 0])

    def oracle(s: float, zz: float) -> float:
        w = 1.0 - 1.0 / (1.0 + s / (zz * zz))
        w = (zz * zz + 1.0) * w
        return w / (t * w + (1.0 - t))

    def records():
        grid = 0.0
        for s in np.linspace(0.0, 1.0, grid_size):
            lib = iso.apply(element_in_factor(factor, np.array([[s]])))
            grid = _worst(grid, abs(float(lib._block(0)[0, 0]) - oracle(float(s), z0)))

        two = HermFactor(2, Ring.REAL)
        z1 = z0 + 0.5
        z_diag = element_in_factor(two, np.diag([z0, z1]))
        iso2 = FactorOrderIso(iso.t, z_diag, identity_jordan(two))
        worst = 0.0
        for s1 in np.linspace(0.0, 1.0, 25):
            for s2 in np.linspace(0.0, 1.0, 25):
                lib = iso2.apply(element_in_factor(two, np.diag([s1, s2])))._block(0)
                worst = _worst(worst, abs(lib[0, 0] - oracle(float(s1), z0)))
                worst = _worst(worst, abs(lib[1, 1] - oracle(float(s2), z1)))
                worst = _worst(worst, abs(lib[0, 1]))
        yield {"scalar_grid": grid, "diagonal_reduction": worst}

    checks = ("scalar_grid", "diagonal_reduction")
    # one record; ``trials`` labels the grid size
    return _report("scalar_oracle", f"t={iso.t:g} z={z0:g}", 0, grid_size, tol, checks, records())


def counterexample_report(n: int) -> SuiteReport:
    """Build the coordinate squeeze map on the n-fold sum of lines and
    document it: the image of e/2 has coordinates exactly 2^(-k), the
    minimum coordinate 2^(-n) shows no uniform spectral floor survives,
    and both candidate Mobius parameterizations are evaluated by the
    scalar oracle (only t_k = 2 - 2^k reproduces 2^(-k); the nearby
    mis-derivation t_k = (3 - 2^k)/2 gives 2/(2^k + 1) instead).
    """
    data = {}

    def records():
        ks = range(1, n + 1)
        iso, image = coordinate_squeeze_iso(n)
        coords = image._groups[0].ravel().tolist()  # the lines' one group
        targets = [2.0 ** -k for k in ks]
        used = [f.t for f in iso.scalar_isos]
        alt = [0.5 * (3.0 - 2.0 ** k) for k in ks]
        alt_vals = [mobius_scalar(t, 0.5) for t in alt]
        data.update(
            coordinates=coords,
            min_coordinate=min(coords),
            note="no uniform spectral floor: min coordinate is 2^-n",
            mobius_params_used=used,
            mobius_params_alternative=alt,
            alternative_images_of_half=alt_vals,
        )
        # the mis-derived parameter gives 2/(2^k+1); its relative gap from
        # 2^(-k) is (2^k-1)/(2^k+1), never below 1/3
        gap = min(abs(v - x) / x for v, x in zip(alt_vals, targets))
        yield {
            "coords_exact": _worst(0.0, *(abs(c - x) for c, x in zip(coords, targets))),
            "param_used_matches": _worst(
                0.0, *(abs(mobius_scalar(t, 0.5) - x) for t, x in zip(used, targets))
            ),
            "param_alternative_differs": _worst(0.0, 0.3 - gap),
        }

    checks = ("coords_exact", "param_used_matches", ("param_alternative_differs", 0.0))
    # one record; ``trials`` labels n
    return _report("counterexample", f"{n}-fold sum of lines", 0, n, 1e-15, checks, records(), data)
