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
           "scaled[i] = s * (s * scaled[i] * num // den)",
           "scaled[i] = scaled[i] * num // den",
           ("tests/test_trigsums.py::test_interval_coefficients_enclose_the_direct_product",
            "tests/test_trigsums.py::test_poch_table_brackets_small_exact_endpoints")),
    Mutant("verified-sign-without-err", MUSTAR,
           "if abs(res.value) > res.err:",
           "if res.value != 0:",
           ("tests/test_mustar.py::test_verified_sign_needs_zero_outside_the_enclosure",)),
    Mutant("seed-error-zero", ENGINE,
           "_SEED_ERR = 8 * _U",
           "_SEED_ERR = 0",
           ("tests/test_engine.py::test_prefix_bounds_cover_their_exact_sums",
            "tests/test_engine.py::test_prefix_steps_from_integer_keys")),
    Mutant("product-error-zero", ENGINE,
           "_MUL_ERR = math.sqrt(2) * 2 * _U / (1 - 2 * _U)",
           "_MUL_ERR = 0",
           ("tests/test_engine.py::test_prefix_bounds_cover_their_exact_sums",
            "tests/test_engine.py::test_prefix_steps_from_integer_keys")),
    Mutant("cell-width-without-node-rounding", ENGINE,
           "h = (step + 8 * _U * self.theta_max) * _SLACK",
           "h = step",
           ("tests/test_engine.py::test_cells_between_float_nodes_are_at_most_h",)),
    Mutant("halved-quadrature-widening", QUADRATURE,
           "enc += iv.mpf([-r, r])",
           "enc += iv.mpf([-r, r]) / 2",
           (), pins=("tests/test_cli.py::test_bounds_all_report_is_pinned",
                     "tests/test_cli.py::test_proof_report_is_pinned[thm-1-3]"),
           expect="pinned only"),
)
