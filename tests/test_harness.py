import math

import numpy as np
import pytest

from effectorder import harness
from effectorder import spectral
from effectorder import (
    FactorOrderIso,
    HermFactor,
    Ring,
    SpinFactor,
    algebra,
    coordinate_squeeze_iso,
    counterexample_report,
    dump_document,
    element_in_factor,
    identity_jordan,
    load_document,
    render_report,
    run_identity_suite,
    run_interval_suite,
    run_order_iso_suite,
    scalar_oracle_compare,
)
from effectorder.harness import CheckResult, SuiteReport

SMALL = algebra(HermFactor(2))
MIXED = algebra(HermFactor(1), HermFactor(2), SpinFactor(3))
# the algebra of the benchmark's map_small_mixed and verify_suites workloads
SMALL_MIXED = algebra(
    HermFactor(1),
    HermFactor(1),
    HermFactor(1),
    HermFactor(4),
    HermFactor(3, Ring.COMPLEX),
    HermFactor(2, Ring.QUATERNION),
    SpinFactor(6),
)


# each seeded suite's checks, in report order, with their tolerances at tol=1e-8
SUITE_CHECKS = {
    run_identity_suite: [
        ("cone_preserved", 1e-8),
        ("inverse_of_map", 1e-8),
        ("inverse_of_image", 1e-8),
        ("fundamental_identity", 1e-8),
        ("square_of_unit_image", 1e-8),
        ("calc_compose", 1e-8),
        ("calc_push_through", 1e-8),
        ("triple_vs_matrix", 1e-8),
    ],
    run_interval_suite: [
        ("stretch_roundtrip_fb", 1e-8),
        ("stretch_roundtrip_bf", 1e-8),
        ("approx_monotone", 1e-8),
        ("approx_distance", 1e-8),
        ("lattice_bounds", 1e-8),
        ("lattice_lower_witness", 1e-8),
        ("stabilize_exact", 1e-12),
    ],
    run_order_iso_suite: [
        ("order_forward", 1e-8),
        ("order_backward", 1e-8),
        ("roundtrip", 1e-8),
        ("atom_rank_one", 1e-8),
        ("lift_param_agree", 1e-8),
        ("boundary_monotone_limit", 1e-8),
        ("endpoints", 1e-12),
        ("invertible_floor", 0.0),
        ("mobius_group_law", 1e-9),
    ],
}


def suite_id(suite):
    return suite.__name__.removeprefix("run_").removesuffix("_suite")


def oracle_iso(t=0.5, z=2.0):
    f = HermFactor(1)
    return FactorOrderIso(t, element_in_factor(f, [[z]]), identity_jordan(f))


def test_horner_is_polyval_bit_for_bit():
    rng = np.random.default_rng(7)
    points = [0.0, -0.0, 1.0, -1.0] + rng.uniform(-1.5, 1.5, size=200).tolist()
    for _ in range(20):
        cf = rng.uniform(-1.0, 1.0, size=5).tolist()
        for v in points:
            got, want = harness._horner(cf, v), float(np.polyval(cf, v))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestDeterminism:
    def test_identity_suite_reports_identical(self):
        a = run_identity_suite(MIXED, seed=7, trials=10)
        b = run_identity_suite(MIXED, seed=7, trials=10)
        assert render_report(a, include_elapsed=False) == render_report(b, include_elapsed=False)

    def test_order_suite_reports_identical(self):
        a = run_order_iso_suite(MIXED, seed=3, trials=6)
        b = run_order_iso_suite(MIXED, seed=3, trials=6)
        assert render_report(a, include_elapsed=False) == render_report(b, include_elapsed=False)

    def test_reports_identical_without_stored_decompositions(self, monkeypatch, eigensolve_counter):
        def reports():
            return [
                render_report(suite(SMALL_MIXED, seed=seed, trials=trials), include_elapsed=False)
                for seed in range(3)
                for suite, trials in (
                    (run_identity_suite, 3),
                    (run_interval_suite, 2),
                    (run_order_iso_suite, 2),
                )
            ]

        stored = reports()
        solves = eigensolve_counter.eigensolves
        eigensolve_counter.clear()
        monkeypatch.setattr(spectral, "_stored_decomposition", lambda x: None)
        assert reports() == stored
        assert eigensolve_counter.eigensolves > solves

    def test_different_seeds_differ(self):
        a = run_identity_suite(MIXED, seed=1, trials=10)
        b = run_identity_suite(MIXED, seed=2, trials=10)
        assert render_report(a, include_elapsed=False) != render_report(b, include_elapsed=False)


class TestSuitesPass:
    @pytest.mark.parametrize(
        "alg",
        [
            algebra(HermFactor(4, Ring.COMPLEX)),
            algebra(SpinFactor(5)),
            algebra(HermFactor(2, Ring.QUATERNION)),
            MIXED,
        ],
        ids=str,
    )
    def test_identity_suite(self, alg):
        report = run_identity_suite(alg, seed=42, trials=40)
        assert report.passed, render_report(report)
        assert report.worst_residual <= 1e-8

    def test_interval_suite(self):
        report = run_interval_suite(MIXED, seed=3, trials=25)
        assert report.passed, render_report(report)

    def test_order_iso_suite_same_algebra(self):
        report = run_order_iso_suite(algebra(HermFactor(3)), seed=1, trials=20)
        assert report.passed, render_report(report)

    def test_order_iso_suite_with_routing(self):
        src = algebra(HermFactor(1), HermFactor(1), HermFactor(1), SpinFactor(3))
        dst = algebra(SpinFactor(3), HermFactor(1), HermFactor(1), HermFactor(1))
        report = run_order_iso_suite(src, dst, seed=5, trials=20)
        assert report.passed, render_report(report)

    def test_scalar_oracle(self):
        report = scalar_oracle_compare(501, oracle_iso())
        assert report.passed
        assert report.worst_residual <= 1e-12

    @pytest.mark.parametrize("suite", [run_identity_suite, run_interval_suite, run_order_iso_suite])
    def test_negative_trial_counts_are_refused(self, suite):
        # a report's loader refuses a negative count, so no suite writes one
        with pytest.raises(ValueError, match="trials"):
            suite(MIXED, seed=0, trials=-3)
        assert suite(MIXED, seed=0, trials=0).passed


class TestMutationsAreCaught:
    def test_identity_mutation(self):
        report = run_identity_suite(SMALL, seed=0, trials=5, mutate=True)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["fundamental_identity"].fails == 5

    def test_interval_mutation(self):
        report = run_interval_suite(SMALL, seed=0, trials=5, mutate=True)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["stretch_roundtrip_fb"].fails > 0

    def test_order_iso_mutation(self):
        report = run_order_iso_suite(SMALL, seed=0, trials=5, mutate=True)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["roundtrip"].fails > 0

    def test_oracle_mutation(self):
        report = scalar_oracle_compare(101, oracle_iso(), mutate=True)
        assert not report.passed


class TestNonFiniteResiduals:
    def test_nan_eigenvalue_fails_every_check_that_reads_it(self, monkeypatch):
        monkeypatch.setattr(harness, "min_eigenvalue", lambda x: math.nan)
        reads = [
            (run_identity_suite(MIXED, seed=0, trials=2), ("cone_preserved",)),
            (
                run_interval_suite(MIXED, seed=0, trials=2),
                ("approx_monotone", "lattice_bounds", "lattice_lower_witness"),
            ),
            (
                run_order_iso_suite(MIXED, seed=0, trials=2),
                ("order_forward", "order_backward", "invertible_floor", "boundary_monotone_limit"),
            ),
        ]
        for report, names in reads:
            by_name = {c.name: c for c in report.checks}
            for name in names:
                assert by_name[name].fails == 2, name
                assert math.isnan(by_name[name].worst), name
            assert not report.passed
            assert math.isnan(report.worst_residual)

    @pytest.mark.parametrize(
        "residuals, trial", [((1e-3, math.nan), 1), ((math.nan, 1e-3), 0)], ids=["nan_last", "nan_first"]
    )
    def test_nan_is_the_worst_residual(self, residuals, trial):
        check = CheckResult("roundtrip", 1e-8)
        for r in residuals:
            check.record(r)
        assert check.fails == 2
        assert math.isnan(check.worst) and check.worst_trial == trial
        report = SuiteReport("order_iso", "herm(2,R)", 0, 2, 1e-8, (check,), 0.0)
        assert math.isnan(report.worst_residual)
        assert f"worst=nan trial={trial}" in render_report(report)


class TestWorstTrial:
    def test_records_the_first_worst_trial(self):
        check = CheckResult("roundtrip", 1e-8)
        assert "worst=0.000e+00 trial=-" in render_report(
            SuiteReport("order_iso", "herm(2,R)", 0, 0, 1e-8, (check,), 0.0)
        )
        for r in (1e-9, 1e-3, 1e-5, 1e-3):
            check.record(r)
        assert (check.worst, check.worst_trial) == (1e-3, 1)
        report = SuiteReport("order_iso", "herm(2,R)", 0, 4, 1e-8, (check,), 0.0)
        assert "worst=1.000e-03 trial=1" in render_report(report)

    @pytest.mark.parametrize("suite", list(SUITE_CHECKS), ids=suite_id)
    def test_replaying_up_to_the_worst_trial_reproduces_it(self, suite):
        report = suite(MIXED, seed=5, trials=6)
        for check in report.checks:
            replay = suite(MIXED, seed=5, trials=check.worst_trial + 1)
            again = next(c for c in replay.checks if c.name == check.name)
            assert (again.worst, again.worst_trial) == (check.worst, check.worst_trial)

    def test_atom_rank_one_is_recorded_once_per_trial(self):
        report = run_order_iso_suite(MIXED, seed=0, trials=3)
        by_name = {c.name: c for c in report.checks}
        assert by_name["atom_rank_one"].passes + by_name["atom_rank_one"].fails == 3


class TestCheckNames:
    @pytest.mark.parametrize("suite", list(SUITE_CHECKS), ids=suite_id)
    @pytest.mark.parametrize("trials", [0, 2])
    def test_names_order_and_tolerances(self, suite, trials):
        report = suite(MIXED, seed=0, trials=trials, tol=1e-8)
        assert [(c.name, c.tol) for c in report.checks] == SUITE_CHECKS[suite]
        assert all(c.passes + c.fails == trials for c in report.checks)
        assert (report.trials, report.tol) == (trials, 1e-8)


class TestCounterexampleReport:
    def test_exact_coordinates(self):
        report = counterexample_report(20)
        assert report.passed
        coords = report.data["coordinates"]
        assert coords == [2.0 ** -(k + 1) for k in range(20)]
        assert report.data["min_coordinate"] == 2.0 ** -20

    def test_documents_both_parameterizations(self):
        report = counterexample_report(5)
        assert report.data["mobius_params_used"] == [2.0 - 2.0 ** k for k in range(1, 6)]
        iso, _ = coordinate_squeeze_iso(5)
        assert report.data["mobius_params_used"] == [f.t for f in iso.scalar_isos]
        assert report.data["mobius_params_alternative"] == [
            0.5 * (3.0 - 2.0 ** k) for k in range(1, 6)
        ]
        # the alternative parameterization does not reach 2^(-k)
        for k, val in enumerate(report.data["alternative_images_of_half"], start=1):
            assert abs(val - 2.0 / (2.0 ** k + 1.0)) <= 1e-15
            assert abs(val - 2.0 ** -k) > 0.1 * 2.0 ** -k

    def test_spectral_floor_note_present(self):
        report = counterexample_report(3)
        assert "no uniform spectral floor" in report.data["note"]


class TestReportFields:
    """A report keeps seed and trials as plain ints and tol as a float, so its
    document writes and loads back; a bool or a non-integer count is refused."""

    PLAIN = {"seed": 3, "trials": 2, "tol": float(np.float32(1e-8))}

    @pytest.mark.parametrize(
        "field, value", [("trials", np.int64(2)), ("seed", np.int64(3)), ("tol", np.float32(1e-8))]
    )
    def test_numpy_arguments_give_the_plain_report(self, field, value):
        report = run_identity_suite(SMALL, **{**self.PLAIN, field: value})
        assert [type(getattr(report, k)) for k in self.PLAIN] == [int, int, float]
        assert [type(c.tol) for c in report.checks] == [float] * len(report.checks)
        plain = run_identity_suite(SMALL, **self.PLAIN)
        assert render_report(report, include_elapsed=False) == render_report(plain, include_elapsed=False)
        text = dump_document(report)
        assert dump_document(load_document(text)) == text

    def test_numpy_counterexample_size(self):
        report = counterexample_report(np.int64(3))
        assert type(report.trials) is int and report.descriptor == "3-fold sum of lines"
        text = dump_document(report)
        assert dump_document(load_document(text)) == text

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_identity_suite(SMALL, trials=True),
            lambda: run_identity_suite(SMALL, seed=True, trials=1),
            lambda: run_identity_suite(SMALL, trials=2.5),
            lambda: counterexample_report(True),
            lambda: counterexample_report(2.0),
        ],
        ids=["trials-bool", "seed-bool", "trials-float", "counterexample-bool", "counterexample-float"],
    )
    def test_bool_and_float_counts_are_refused(self, run):
        with pytest.raises(ValueError, match="must be an integer"):
            run()

    @pytest.mark.parametrize(
        "suite", [run_identity_suite, run_interval_suite, run_order_iso_suite], ids=lambda s: s.__name__
    )
    def test_a_negative_seed_is_refused_by_name(self, suite):
        # numpy's own refusal, "expected non-negative integer", did not name seed
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1"):
            suite(SMALL, seed=-1, trials=1)

    @pytest.mark.parametrize("n", [True, 2.0], ids=["bool", "float"])
    def test_squeeze_map_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="must be an integer"):
            coordinate_squeeze_iso(n)


class TestRendering:
    def test_contains_all_checks(self):
        report = run_identity_suite(SMALL, seed=0, trials=3)
        text = render_report(report)
        for c in report.checks:
            assert c.name in text

    def test_elapsed_toggle(self):
        report = run_identity_suite(SMALL, seed=0, trials=3)
        with_elapsed = render_report(report, include_elapsed=True)
        without = render_report(report, include_elapsed=False)
        assert with_elapsed != without and without in with_elapsed.replace(
            with_elapsed.splitlines()[0], without.splitlines()[0]
        )


# the rendered text and the JSON document (its elapsed_seconds line dropped)
# of the reports built from one record, as pinned literal text
GOLDEN_ORACLE = (
    """\
suite scalar_oracle  [t=0.5 z=2]  seed=0 trials=101 tol=1e-12  PASS  worst=1.270e-15
  scalar_grid                      1 pass   0 fail  worst=1.270e-15 trial=0  tol=1e-12
  diagonal_reduction               1 pass   0 fail  worst=9.992e-16 trial=0  tol=1e-12""",
    """\
{
 "type": "report",
 "suites": [
  {
   "suite": "scalar_oracle",
   "descriptor": "t=0.5 z=2",
   "seed": 0,
   "trials": 101,
   "tol": 1e-12,
   "passed": true,
   "worst_residual": 1.2698175844150228e-15,
   "checks": [
    {
     "name": "scalar_grid",
     "tol": 1e-12,
     "passes": 1,
     "fails": 0,
     "worst_residual": 1.2698175844150228e-15,
     "worst_trial": 0
    },
    {
     "name": "diagonal_reduction",
     "tol": 1e-12,
     "passes": 1,
     "fails": 0,
     "worst_residual": 9.992007221626409e-16,
     "worst_trial": 0
    }
   ],
   "data": {}
  }
 ]
}""",
)


GOLDEN_ORACLE_MUTATED = (
    """\
suite scalar_oracle  [t=0.5 z=2]  seed=0 trials=101 tol=1e-12  FAIL  worst=5.004e-04
  scalar_grid                      0 pass   1 fail  worst=5.004e-04 trial=0  tol=1e-12
  diagonal_reduction               0 pass   1 fail  worst=5.004e-04 trial=0  tol=1e-12""",
    """\
{
 "type": "report",
 "suites": [
  {
   "suite": "scalar_oracle",
   "descriptor": "t=0.5 z=2",
   "seed": 0,
   "trials": 101,
   "tol": 1e-12,
   "passed": false,
   "worst_residual": 0.0005004405772875975,
   "checks": [
    {
     "name": "scalar_grid",
     "tol": 1e-12,
     "passes": 0,
     "fails": 1,
     "worst_residual": 0.0005004405772875975,
     "worst_trial": 0
    },
    {
     "name": "diagonal_reduction",
     "tol": 1e-12,
     "passes": 0,
     "fails": 1,
     "worst_residual": 0.0005003881161612656,
     "worst_trial": 0
    }
   ],
   "data": {}
  }
 ]
}""",
)


GOLDEN_COUNTEREXAMPLE_5 = (
    """\
suite counterexample  [5-fold sum of lines]  seed=0 trials=5 tol=1e-15  PASS  worst=0.000e+00
  coords_exact                     1 pass   0 fail  worst=0.000e+00 trial=0  tol=1e-15
  param_used_matches               1 pass   0 fail  worst=0.000e+00 trial=0  tol=1e-15
  param_alternative_differs        1 pass   0 fail  worst=0.000e+00 trial=0  tol=0
  # coordinates: [0.5, 0.25, 0.125, 0.0625, 0.03125]
  # min_coordinate: 0.03125
  # note: no uniform spectral floor: min coordinate is 2^-n
  # mobius_params_used: [0.0, -2.0, -6.0, -14.0, -30.0]
  # mobius_params_alternative: [0.5, -0.5, -2.5, -6.5, -14.5]
  # alternative_images_of_half: [0.6666666666666666, 0.4, 0.2222222222222222, 0.11764705882352941, 0.06060606060606061]""",
    """\
{
 "type": "report",
 "suites": [
  {
   "suite": "counterexample",
   "descriptor": "5-fold sum of lines",
   "seed": 0,
   "trials": 5,
   "tol": 1e-15,
   "passed": true,
   "worst_residual": 0.0,
   "checks": [
    {
     "name": "coords_exact",
     "tol": 1e-15,
     "passes": 1,
     "fails": 0,
     "worst_residual": 0.0,
     "worst_trial": 0
    },
    {
     "name": "param_used_matches",
     "tol": 1e-15,
     "passes": 1,
     "fails": 0,
     "worst_residual": 0.0,
     "worst_trial": 0
    },
    {
     "name": "param_alternative_differs",
     "tol": 0.0,
     "passes": 1,
     "fails": 0,
     "worst_residual": 0.0,
     "worst_trial": 0
    }
   ],
   "data": {
    "coordinates": [
     0.5,
     0.25,
     0.125,
     0.0625,
     0.03125
    ],
    "min_coordinate": 0.03125,
    "note": "no uniform spectral floor: min coordinate is 2^-n",
    "mobius_params_used": [
     0.0,
     -2.0,
     -6.0,
     -14.0,
     -30.0
    ],
    "mobius_params_alternative": [
     0.5,
     -0.5,
     -2.5,
     -6.5,
     -14.5
    ],
    "alternative_images_of_half": [
     0.6666666666666666,
     0.4,
     0.2222222222222222,
     0.11764705882352941,
     0.06060606060606061
    ]
   }
  }
 ]
}""",
)


def dump_without_elapsed(report):
    return "\n".join(
        line for line in dump_document(report).splitlines() if '"elapsed_seconds"' not in line
    )


class TestGoldenReports:
    @pytest.mark.parametrize(
        "build, golden",
        [
            (lambda: scalar_oracle_compare(101, oracle_iso()), GOLDEN_ORACLE),
            (lambda: scalar_oracle_compare(101, oracle_iso(), mutate=True), GOLDEN_ORACLE_MUTATED),
            (lambda: counterexample_report(5), GOLDEN_COUNTEREXAMPLE_5),
        ],
        ids=["oracle", "oracle_mutated", "counterexample_5"],
    )
    def test_render_and_dump(self, build, golden):
        report = build()
        assert render_report(report, include_elapsed=False) == golden[0]
        assert dump_without_elapsed(report) == golden[1]
