"""Single-line soundness mutations of trigpos and the tests that must kill them.

Each entry names a file under the repository root, a string that occurs
exactly once in it, its replacement, the tests expected to fail once the
replacement is made ("tests", none of them a byte pin of a report) and the
byte pins that also fail ("pins").  An entry whose mutated program is still
sound, only less tight, is killed by a pin alone and expects "pinned only".
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    pins: tuple[str, ...] = ()
    expect: str = "killed"


ENGINE = "src/trigpos/engine.py"
QUADRATURE = "src/trigpos/quadrature.py"
TRIGSUMS = "src/trigpos/trigsums.py"
MUSTAR = "src/trigpos/mustar.py"
PRECISION = "src/trigpos/precision.py"
GEGENBAUER = "src/trigpos/gegenbauer.py"

MUTANTS = (
    Mutant("coefficient-half-width", ENGINE,
           "self.err = (self.float_err + half) * _SLACK",
           "self.err = self.float_err * _SLACK",
           ("tests/test_engine.py::test_prefix_bounds_cover_their_exact_sums",)),
    Mutant("float-part-of-err", ENGINE,
           "self.float_err = (fp + rounding) * _SLACK",
           "self.float_err = rounding * _SLACK",
           ("tests/test_engine.py::test_float_values_stay_within_the_float64_bound",
            "tests/test_engine.py::test_prefix_bounds_cover_their_exact_sums")),
    Mutant("curvature-h2-over-16", ENGINE,
           "if m > (self.m2[n] * h * h / 8 + err) * (1 + 8 * _U):",
           "if m > (self.m2[n] * h * h / 16 + err) * (1 + 8 * _U):",
           ("tests/test_engine.py::test_tangency_inside_a_cell",),
           pins=("tests/test_cli.py::test_proof_report_is_pinned[thm-2-3]",)),
    Mutant("fixed-point-error-growth", ENGINE,
           "e += (e * r >> p) + r + 3",
           "e += r + 3",
           ("tests/test_engine.py::test_fixed_point_errors_cover_wide_off_centre_seeds",)),
    Mutant("series-remainder", QUADRATURE,
           "return total, err + eps",
           "return total, err",
           ("tests/test_quadrature.py::test_error_bound_holds_against_a_120_digit_sum",
            "tests/test_quadrature.py::test_composites_enclose_the_integral_at_exact_arguments")),
    Mutant("series-rounding-bound", QUADRATURE,
           "return total, err + eps",
           "return total, eps",
           ("tests/test_quadrature.py::test_carried_floor_bound_at_coarse_precision",)),
    Mutant("quadrature-widening", QUADRATURE,
           "enc += iv.mpf([-r, r])",
           "enc += 0",
           ("tests/test_quadrature.py::test_interval_arguments_widen_by_the_derivative_bounds",
            "tests/test_bounds.py::test_report_contains_the_formula_across_the_enclosure"),
           pins=("tests/test_cli.py::test_bounds_all_report_is_pinned",)),
    Mutant("pochhammer-upper-end-rounded-down", TRIGSUMS,
           "-(-hi * (b + k * e) // (e * (k + 1)))",
           "hi * (b + k * e) // (e * (k + 1))",
           ("tests/test_trigsums.py::test_interval_coefficients_enclose_the_direct_product",
            "tests/test_trigsums.py::test_poch_table_brackets_small_exact_endpoints")),
    Mutant("pochhammer-lower-end-rounded-up", TRIGSUMS,
           "lo * (a + k * d) // (d * (k + 1))",
           "-(-lo * (a + k * d) // (d * (k + 1)))",
           ("tests/test_trigsums.py::test_interval_coefficients_enclose_the_direct_product",
            "tests/test_trigsums.py::test_poch_table_brackets_small_exact_endpoints")),
    Mutant("verified-sign-without-err", MUSTAR,
           "if abs(res.value) > res.err:",
           "if res.value != 0:",
           ("tests/test_mustar.py::test_verified_sign_needs_zero_outside_the_enclosure",)),
    Mutant("rho-box-upper-end", MUSTAR,
           "if not (0 < rho.a and rho.b <= 1):",
           "if not (0 < rho.a and rho.a <= 1):",
           ("tests/test_mustar.py::test_defect_refuses_a_rho_box_leaving_the_range[past-1]",
            "tests/test_mustar.py::test_defect_refuses_a_rho_box_leaving_the_range[iv-past-1]")),
    Mutant("narrow-without-quarter-point-retry", MUSTAR,
           "c = (3 * lo + hi) / 4 if c - lo > hi - c else (lo + 3 * hi) / 4",
           "raise",
           ("tests/test_mustar.py::"
            "test_a_probe_without_a_verified_sign_retries_at_a_quarter_point",)),
    Mutant("narrow-halving-for-anderson-bjorck", MUSTAR,
           "vals[1 - side] *= m if m > 0 else 0.5",
           "vals[1 - side] *= 0.5",
           ("tests/test_mustar.py::test_seeded_search_takes_few_integrals[rho1-width1-6]",)),
    Mutant("narrow-without-straddle-check", MUSTAR,
           "if not vals[0] < 0 < vals[1]:",
           "if False:",
           ("tests/test_mustar.py::test_narrow_refuses_ends_without_a_sign_change",
            "tests/test_mustar.py::test_mu_star_refuses_a_bracket_that_does_not_straddle")),
    Mutant("bracket-upper-end-3-halves", MUSTAR,
           "math.floor(min(1, 2 * rho) / ulp)",
           "math.floor(min(1, 3 * rho / 2) / ulp)",
           ("tests/test_mustar.py::test_small_rho_enclosure_straddles_the_oracle_sign_change[rho2]",)),
    Mutant("bracket-lower-end-rounded-down", MUSTAR,
           "math.ceil(rho / ulp)",
           "math.floor(rho / ulp)",
           ("tests/test_mustar.py::test_enclosure_stays_inside_the_bracket[rho0-width0]",)),
    Mutant("boundary-root-below-one", MUSTAR,
           'MuStarResult(Enclosure.exact(1), "boundary", 0)',
           'MuStarResult(Enclosure(1 - PROOF_WIDTH, 1), "boundary", 0)',
           ("tests/test_mustar.py::test_boundary_rho_one",)),
    Mutant("curvature-margin-minus-err", ENGINE,
           "h * h / 8 + err",
           "h * h / 8 - err",
           ("tests/test_engine.py::test_decide_certifies_only_above_curvature_plus_error",)),
    Mutant("seed-error-zero", ENGINE,
           "_SEED_ERR = 8 * _U",
           "_SEED_ERR = 0",
           ("tests/test_engine.py::test_prefix_bounds_cover_their_exact_sums",)),
    Mutant("product-error-zero", ENGINE,
           "_MUL_ERR = math.sqrt(2) * 2 * _U / (1 - 2 * _U)",
           "_MUL_ERR = 0",
           ("tests/test_engine.py::test_prefix_bounds_cover_their_exact_sums",)),
    Mutant("seed-phase-without-sine-fold", ENGINE,
           "first = (tsum.alpha, tsum.beta - Fraction(1, 2))",
           "first = (tsum.alpha, tsum.beta)",
           ("tests/test_engine.py::test_fixed_point_errors_cover_the_true_terms",
            "tests/test_engine.py::test_float_values_stay_within_the_float64_bound")),
    Mutant("curvature-weight-linear-in-frequency", ENGINE,
           "cmax * f * f",
           "cmax * f",
           ("tests/test_engine.py::test_prefix_bounds_cover_their_exact_sums",)),
    Mutant("cell-width-without-node-rounding", ENGINE,
           "h = (step + 8 * _U * self.theta_max) * _SLACK",
           "h = step",
           ("tests/test_engine.py::test_cells_between_float_nodes_are_at_most_h",)),
    Mutant("grid-outside-normal-range", ENGINE,
           "_TINY = 2.0**-969",
           "_TINY = 0.0",
           ("tests/test_engine.py::test_no_certificate_outside_float64s_normal_range",)),
    Mutant("arg-bound-passes-a-vanishing-sum", GEGENBAUER,
           "self.max_abs_arg < self.threshold and self.min_abs_value > 0",
           "self.max_abs_arg < self.threshold",
           ("tests/test_gegenbauer.py::test_a_vanishing_sample_never_passes_the_arg_bound",)),
    Mutant("arg-bound-least-value-from-largest", GEGENBAUER,
           "least = np.minimum(least, np.abs(w).min())",
           "least = np.minimum(least, np.abs(w).max())",
           ("tests/test_gegenbauer.py::test_criterion_09_and_10_scan_reports_are_pinned",)),
    Mutant("halved-quadrature-widening", QUADRATURE,
           "enc += iv.mpf([-r, r])",
           "enc += iv.mpf([-r, r]) / 2",
           (), pins=("tests/test_cli.py::test_bounds_all_report_is_pinned",
                     "tests/test_cli.py::test_proof_report_is_pinned[thm-1-3]"),
           expect="pinned only"),
    Mutant("proof-precision-without-guard-digits", PRECISION,
           "working_dps() + 15 if dps is None else dps",
           "working_dps() if dps is None else dps",
           ("tests/test_mustar.py::test_defect_encloses_the_integral_at_exact_arguments",
            "tests/test_engine.py::test_seed_boxes_enclose_the_true_seed")),
    Mutant("iv-ends-rounded-to-mp", PRECISION,
           "return tuple(mp.make_mpf(end) for end in x._mpi_)",
           "return mp.mpf(x.a), mp.mpf(x.b)",
           ("tests/test_trigsums.py::test_iv_ends_are_exact_at_any_mp_precision",
            "tests/test_trigsums.py::test_outward_bounds_lie_on_their_side")),
)
