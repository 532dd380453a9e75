import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import ymseries
from ymseries import cli, closedforms, levidata, strata
from ymseries.cli import main
from ymseries.errors import ExactnessError, InputError
from ymseries.closedforms import so_even_flat, sp_flat, zagier_un
from ymseries.exactalg import CoeffVector, Poly, RatFun, series_expand
from ymseries.gaugeseries import tail_profile
from ymseries.levidata import enumerate_parabolics
from ymseries.nonorient import chamber_involution, enumerate_nonorientable_points
from ymseries.rootsys import GroupSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoincare:
    def test_latex_sp1(self, capsys):
        code, out, _ = run(
            capsys, "poincare", "--group", "sp", "--rank", "1", "--genus", "3",
            "--format", "latex",
        )
        assert code == 0 and out.startswith("\\frac{")

    def test_both_engines_agree(self, capsys):
        code, out, _ = run(
            capsys, "poincare", "--group", "so-even", "--rank", "2", "--genus", "2",
            "--w2", "1", "--engine", "both",
        )
        assert code == 0 and ")/(" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "poincare", "--group", "u", "--rank", "2", "--genus", "2",
            "--degree", "1", "--format", "json",
        )
        data = json.loads(out)
        assert data["group"] == "U(2)" and "num" in data["series"]

    def test_deterministic(self, capsys):
        argv = ["poincare", "--group", "sp", "--rank", "2", "--genus", "2"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_group_out_of_range(self, capsys):
        code, out, err = run(
            capsys, "poincare", "--group", "so-even", "--rank", "1", "--genus", "2",
        )
        assert code == 2 and out == "" and err.startswith("error: ")


class TestSeries:
    def test_su2(self, capsys):
        code, out, _ = run(
            capsys, "series", "--group", "su", "--rank", "2", "--genus", "2",
            "--order", "6",
        )
        assert code == 0 and out.split() == ["1", "0", "1", "4", "2", "4", "7"]

    def test_env_default_order(self, capsys, monkeypatch):
        monkeypatch.setenv("YM_TRUNCATION_DEFAULT", "3")
        code, out, _ = run(capsys, "series", "--group", "u", "--rank", "1", "--genus", "2")
        assert code == 0 and len(out.split()) == 4

    def test_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv("YM_TRUNCATION_DEFAULT", "many")
        code, _, err = run(capsys, "series", "--group", "u", "--rank", "1", "--genus", "2")
        assert code == 2 and "YM_TRUNCATION_DEFAULT" in err


class TestStratum:
    def test_product_stratum(self, capsys):
        code, out, _ = run(
            capsys, "stratum", "--group", "sp", "--rank", "2", "--genus", "2",
            "--composition", "1,1", "--labels", "2,1",
        )
        assert code == 0 and ")/(" in out

    def test_split_needs_component(self, capsys):
        code, _, err = run(
            capsys, "stratum", "--group", "so-odd", "--rank", "2", "--genus", "2",
            "--composition", "2", "--labels", "0", "--tail", "zero",
        )
        assert code == 2 and "component" in err

    def test_invalid_point(self, capsys):
        code, _, err = run(
            capsys, "stratum", "--group", "u", "--rank", "2", "--genus", "2",
            "--composition", "1,1", "--labels", "1,1",
        )
        assert code == 2 and err

    def test_non_integer_composition(self, capsys):
        code, out, err = run(
            capsys, "stratum", "--group", "u", "--rank", "2", "--genus", "2",
            "--composition", "1,x", "--labels", "1,0",
        )
        assert code == 2 and out == "" and err.startswith("error: ")


class TestStrataList:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "strata-list", "--group", "sp", "--rank", "1", "--genus", "2",
            "--codim-bound", "6",
        )
        assert code == 0 and len(out.strip().splitlines()) == 3

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "strata-list", "--group", "u", "--rank", "2", "--genus", "2",
            "--degree", "0", "--codim-bound", "4", "--format", "json",
        )
        data = json.loads(out)
        assert [s["codim"] for s in data["strata"]] == [0, 3]


class TestComponents:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "components", "--group", "so-odd", "--rank", "3", "--surface-i", "1",
            "--composition", "1,2", "--labels", "1,0", "--zero-tail", "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert [c["w2"] for c in data["components"]] == [0, 1]

    def test_text_render(self, capsys):
        code, out, _ = run(
            capsys, "components", "--group", "sp", "--rank", "2", "--surface-i", "1",
            "--composition", "1,1", "--labels", "2,1",
        )
        assert code == 0 and out.strip() == "M~(l,i;1,2) x M~(l,i;1,1)"

    def test_invalid_point(self, capsys):
        # symplectic slope 1/2 sits on the floor of the nonorientable index set
        code, out, err = run(
            capsys, "components", "--group", "sp", "--rank", "2", "--surface-i", "1",
            "--composition", "2", "--labels", "1",
        )
        assert code == 2 and not out and "1/2" in err

    def test_zero_tail_and_minus_last_exclude_each_other(self, capsys):
        code, out, err = run(
            capsys, "components", "--group", "so-even", "--rank", "4", "--surface-i", "1",
            "--composition", "2,2", "--labels", "1,0", "--zero-tail", "--minus-last",
        )
        assert (code, out, err) == (2, "", "error: zero_tail and minus_last exclude each other\n")

    @pytest.mark.parametrize(
        "group,composition,labels",
        [
            ("sp", "1,2", "1,0"),
            ("so-odd", "1,2", "1,0"),
            # each of these also breaks a point rule; the flag pair is named first
            ("sp", "1,2", "1"),
            ("sp", "1,2", "1,1"),
            ("u", "1,2", "1,0"),
        ],
    )
    def test_flag_pair_refused_before_the_point(self, capsys, group, composition, labels):
        code, out, err = run(
            capsys, "components", "--group", group, "--rank", "3", "--surface-i", "1",
            "--composition", composition, "--labels", labels, "--zero-tail", "--minus-last",
        )
        assert (code, out, err) == (2, "", "error: zero_tail and minus_last exclude each other\n")


class TestVerifiers:
    def test_recursion_ok(self, capsys):
        code, out, _ = run(
            capsys, "verify-recursion", "--group", "sp", "--rank", "1", "--genus", "2",
            "--order", "24",
        )
        assert code == 0 and "holds" in out

    def test_recursion_json(self, capsys):
        code, out, _ = run(
            capsys, "verify-recursion", "--group", "u", "--rank", "2", "--genus", "2",
            "--degree", "1", "--order", "20", "--format", "json",
        )
        assert code == 0 and json.loads(out)["holds"] is True

    def test_isomorphisms(self, capsys):
        code, out, _ = run(capsys, "verify-isomorphisms", "--genus", "2")
        assert code == 0 and out.count("ok") == 11

    def test_appendix_small(self, capsys):
        code, out, _ = run(
            capsys, "verify-appendix", "--order", "20", "--cone-samples", "10",
            "--langlands-samples", "2", "--seed", "3",
        )
        assert code == 0 and "rank 3: ok" in out


def bumped(cv, bumps):
    """cv with bumps[k] added to its coefficient of t**k."""
    return CoeffVector(tuple(c + bumps.get(k, 0) for k, c in enumerate(cv.coeffs)))


class TestFailureDiagnostics:
    """Each verb whose check ends in a series expansion names where it
    fails, shown by a mismatch injected into one side of its check."""

    RECURSION = ["verify-recursion", "--group", "sp", "--rank", "1", "--genus", "2", "--order", "24"]

    def inject_residual(self, monkeypatch):
        real = strata.truncated_sum
        monkeypatch.setattr(
            strata, "truncated_sum", lambda terms, order: bumped(real(terms, order), {7: 3, 12: 5})
        )

    def test_recursion_names_the_first_residual(self, capsys, monkeypatch):
        self.inject_residual(monkeypatch)
        code, out, err = run(capsys, *self.RECURSION)
        assert code == 1 and not err
        assert out.splitlines() == [
            "Sp(1) class 0 genus 2: identity FAILS to degree 24 using 6 strata",
            "first nonzero residual at degree 7: -3",
        ]

    def test_recursion_json_is_unchanged_on_failure(self, capsys, monkeypatch):
        self.inject_residual(monkeypatch)
        report = strata.verify_recursion(GroupSpec("sp", 1), 0, 2, 24)
        code, out, _ = run(capsys, *self.RECURSION, "--format", "json")
        assert code == 1
        assert out == json.dumps(report.to_json(), sort_keys=True) + "\n"
        assert report.residual.coeffs[7] == -3 and report.residual.coeffs[12] == -5

    def test_recursion_success_prints_one_line(self, capsys):
        code, out, _ = run(capsys, *self.RECURSION)
        assert code == 0
        assert out == "Sp(1) class 0 genus 2: identity holds to degree 24 using 6 strata\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_poincare_names_the_first_differing_degree(self, capsys, monkeypatch, fmt):
        # the general route is off by t^3
        real = closedforms.lr_general
        monkeypatch.setattr(closedforms, "lr_general", lambda *args: real(*args) + RatFun.t_power(3))
        code, out, err = run(
            capsys, "poincare", "--group", "sp", "--rank", "2", "--genus", "2", "--format", fmt,
        )
        a = series_expand(sp_flat(2, 2), 3).coeffs[3]
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "engine disagreement between specialized and general routes",
            f"first differing series coefficient at degree 3: specialized {a}, general {a + 1}",
        ]

    def test_appendix_names_the_first_differing_degree(self, capsys, monkeypatch):
        # the second spec's lattice count is off at degrees 5 and 9
        real = cli.cone_sum_truncated
        seen = []

        def miscounted(spec, order):
            got = real(spec, order)
            seen.append((spec, got.coeffs))
            return bumped(got, {5: 1, 9: -2}) if len(seen) == 2 else got

        monkeypatch.setattr(cli, "cone_sum_truncated", miscounted)
        code, out, err = run(
            capsys, "verify-appendix", "--order", "20", "--cone-samples", "4",
            "--langlands-samples", "1", "--seed", "3",
        )
        spec, coeffs = seen[1]
        assert code == 1 and len(seen) == 4
        assert err == (
            f"cone sum mismatch at {spec}: degree 5, lattice count {coeffs[5] + 1}, "
            f"closed form {coeffs[5]}\n"
        )
        assert "cone sums: 4 random specs to degree 20: FAIL" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["poincare", "--group", "nope", "--rank", "1", "--genus", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["stratum", "--group", "sp", "--rank", "2", "--genus", "2", "--composition", "1,1",
         "--labels", "2,1", "--w2", "1"],
        ["stratum", "--group", "u", "--rank", "2", "--genus", "2", "--composition", "1,1",
         "--labels", "1,0", "--degree", "1"],
        ["components", "--group", "so-odd", "--rank", "3", "--surface-i", "1",
         "--composition", "1,2", "--labels", "1,0", "--w2", "1"],
    ],
    ids=["stratum --w2", "stratum --degree", "components --w2"],
)
def test_labelled_verbs_take_no_class_flags(argv):
    # stratum and components read the class off --labels
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# each exits 2 with "error: " on stderr and nothing on stdout
BAD_INPUTS = {
    "rank 0": ["poincare", "--group", "sp", "--rank", "0", "--genus", "2"],
    "genus 0": ["poincare", "--group", "sp", "--rank", "1", "--genus", "0"],
    "su rank 1": ["poincare", "--group", "su", "--rank", "1", "--genus", "2"],
    "su degree 5": [
        "poincare", "--group", "su", "--rank", "2", "--degree", "5", "--genus", "2",
        "--format", "json",
    ],
    "spin-odd w2 1": [
        "poincare", "--group", "spin-odd", "--rank", "3", "--genus", "2", "--w2", "1",
    ],
    "sp degree 5": ["poincare", "--group", "sp", "--rank", "2", "--genus", "2", "--degree", "5"],
    "so-odd degree -1": [
        "series", "--group", "so-odd", "--rank", "2", "--genus", "2", "--degree", "-1",
    ],
    "u w2 1": [
        "verify-recursion", "--group", "u", "--rank", "2", "--genus", "2", "--w2", "1",
    ],
    "series order -1": ["series", "--group", "u", "--rank", "2", "--genus", "2", "--order", "-1"],
    "recursion genus 0": ["verify-recursion", "--group", "sp", "--rank", "1", "--genus", "0"],
    "recursion order -2": [
        "verify-recursion", "--group", "sp", "--rank", "1", "--genus", "2", "--order", "-2",
    ],
    "composition 1,x": [
        "stratum", "--group", "u", "--rank", "2", "--genus", "2",
        "--composition", "1,x", "--labels", "1,0",
    ],
    "strata-list genus 0": [
        "strata-list", "--group", "sp", "--rank", "1", "--genus", "0", "--codim-bound", "6",
    ],
    "appendix order -1": ["verify-appendix", "--order", "-1"],
    "appendix langlands samples -1": [
        "verify-appendix", "--langlands-samples", "-1", "--cone-samples", "1",
    ],
    "appendix cone samples 0": ["verify-appendix", "--cone-samples", "0"],
    "components of u": [
        "components", "--group", "u", "--rank", "2", "--surface-i", "1",
        "--composition", "1,1", "--labels", "1,0",
    ],
    "split point, no component": [
        "stratum", "--group", "so-odd", "--rank", "2", "--genus", "2",
        "--composition", "2", "--labels", "0", "--tail", "zero",
    ],
    "components slopes not decreasing": [
        "components", "--group", "sp", "--rank", "2", "--surface-i", "1",
        "--composition", "1,1", "--labels", "1,1",
    ],
    "stratum slopes not decreasing": [
        "stratum", "--group", "so-odd", "--rank", "3", "--genus", "2",
        "--composition", "2,1", "--labels", "1,1",
    ],
}


# the one stderr line of each, naming the argument or the operation that failed
BAD_INPUT_ERRORS = {
    "rank 0": "sp requires n >= 1, got 0",
    "genus 0": "need genus ell >= 1, got ell = 0",
    "su rank 1": "su requires n >= 2, got 1",
    "su degree 5": "SU(2) is simply connected, got class 5",
    "spin-odd w2 1": "Spin(7) takes no --w2, got 1",
    "sp degree 5": "Sp(2) takes no --degree, got 5",
    "so-odd degree -1": "SO(5) takes no --degree, got -1",
    "u w2 1": "U(2) takes no --w2, got 1",
    "series order -1": "order must be nonnegative",
    "recursion genus 0": "need genus ell >= 1, got ell = 0",
    "recursion order -2": "order must be nonnegative",
    "composition 1,x": "--composition must be a comma-separated integer list",
    "strata-list genus 0": "need genus ell >= 1, got ell = 0",
    "appendix order -1": "order must be nonnegative",
    "appendix langlands samples -1": "samples must be at least 1, got -1",
    "appendix cone samples 0": "--cone-samples must be at least 1, got 0",
    "components of u": "nonorientable points are not defined for family 'u'",
    "split point, no component": "split point: pass component='plus' or 'minus'",
    # the chamber chain, with the symplectic floor 1/2 and the orthogonal floor 0
    "components slopes not decreasing": "block slopes must strictly decrease: 1, 1, 1/2",
    "stratum slopes not decreasing": "block slopes must strictly decrease: 1/2, 1, 0",
}


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_agree(self, capsys):
        argv = ("poincare", "--group", "sp", "--rank", "2", "--genus", "2", "--engine", "both")
        first = run(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert run(capsys, *argv) == first
        # a call that argparse rejects leaves nothing behind for the next
        with pytest.raises(SystemExit):
            main(["poincare", "--group", "sp"])
        capsys.readouterr()
        assert run(capsys, *argv) == first


class TestExitCodes:
    @pytest.mark.parametrize(
        "group,engine",
        [("u", "specialized"), ("sp", "specialized"), ("so-odd", "general"), ("so-even", "both")],
    )
    def test_rank_over_term_budget_exits_2(self, capsys, monkeypatch, group, engine):
        # refused before any composition is built: the patched enumeration
        # turns a broken check into exit 3 instead of a hang
        def no_enumeration(*args):
            raise AssertionError("a refused rank reached the enumeration")

        monkeypatch.setattr(levidata, "combinations", no_enumeration)
        code, out, err = run(
            capsys, "poincare", "--group", group, "--rank", "40", "--genus", "2", "--engine", engine
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: rank 40 has 549755813888 compositions, more than the "
            f"{levidata.MAX_COMPOSITIONS} this package enumerates\n"
        )

    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_input_error_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("name", BAD_INPUTS)
    def test_input_error_names_what_failed(self, capsys, name):
        assert run(capsys, *BAD_INPUTS[name])[2] == f"error: {BAD_INPUT_ERRORS[name]}\n"

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: zagier_un(0, 0, 2), "need rank n >= 1, got n = 0"),
            (lambda: so_even_flat(1, 2, 0), "need rank n >= 2, got n = 1"),
            (lambda: sp_flat(2, 0), "need genus ell >= 1, got ell = 0"),
            (lambda: tail_profile("u", 2), "tail degree profiles are not defined for family 'u'"),
            (
                lambda: enumerate_parabolics(GroupSpec("su", 3)),
                "standard parabolics are not defined for family 'su'",
            ),
            (
                lambda: chamber_involution(GroupSpec("spin-odd", 2), (1, 0)),
                "the chamber involution is not defined for family 'spin-odd'",
            ),
            (
                lambda: enumerate_nonorientable_points(GroupSpec("u", 2), 1, 2),
                "nonorientable strata are not defined for family 'u'",
            ),
            (
                lambda: strata._tail_shapes("su", 1, 0),
                "stratum tail shapes are not defined for family 'su'",
            ),
        ],
    )
    def test_library_errors_name_what_failed(self, call, message):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message

    def test_codimension_fault_exits_3(self, capsys, monkeypatch):
        real_codim = strata.codim
        monkeypatch.setattr(strata, "codim", lambda *args: real_codim(*args) + 1)
        code, out, err = run(
            capsys, "verify-recursion", "--group", "sp", "--rank", "2", "--genus", "2",
            "--order", "20",
        )
        assert code == 3 and out == ""
        assert err.startswith("internal error: codim(") and "disagrees with the enumerated" in err

    def test_non_cyclotomic_value_exits_2(self, capsys, monkeypatch):
        # a value whose series would have a fractional coefficient cannot be
        # built: its denominator 2 + t is not a product of Phi_d
        monkeypatch.setattr(cli, "flat_series", lambda *args, **kwargs: RatFun(Poly.one(), Poly((2, 1))))
        code, out, err = run(
            capsys, "series", "--group", "u", "--rank", "1", "--genus", "2", "--order", "4",
        )
        message = "error: denominator 2 + t is not a product of cyclotomic polynomials\n"
        assert (code, out, err) == (2, "", message)

    def test_other_exceptions_exit_3(self, capsys, monkeypatch):
        # a ValueError outside InputError is a bug: exit 3 with its traceback
        def buggy(*args, **kwargs):
            raise ValueError("not an exact division")

        monkeypatch.setattr(cli, "flat_series", buggy)
        code, out, err = run(
            capsys, "series", "--group", "u", "--rank", "1", "--genus", "2", "--order", "4",
        )
        assert code == 3 and out == ""
        assert err.startswith("internal error: ValueError: not an exact division\nTraceback")
        assert err.endswith("ValueError: not an exact division\n")

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (
                ["poincare", "--group", "sp", "--rank", "2", "--engine", "both"],
                "(1 - 2*t + 4*t^2 - 4*t^3 + 5*t^4 - 4*t^5 + 5*t^6 - 4*t^7 + 3*t^8)/"
                "(1 - 2*t + 3*t^2 - 4*t^3 + 4*t^4 - 4*t^5 + 4*t^6 - 4*t^7 + 3*t^8 - 2*t^9 + t^10)\n",
            ),
            (
                ["verify-recursion", "--group", "sp", "--rank", "1", "--order", "10"],
                "Sp(1) class 0 genus 1: identity holds to degree 10 using 3 strata\n",
            ),
            (
                ["series", "--group", "u", "--rank", "2", "--degree", "1", "--order", "8"],
                "1 2 2 2 2 2 2 2 2\n",
            ),
        ],
    )
    def test_low_genus_notes_once(self, capsys, argv, stdout):
        code, out, err = run(capsys, *argv, "--genus", "1")
        assert code == 0 and out == stdout
        assert err == "note: the stratification presumes genus >= 2, got 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # a short output, left in the buffer until main flushes it
            ["poincare", "--group", "sp", "--rank", "2", "--genus", "2"],
            # 200,002 bytes, more than a pipe holds, so the print itself fails
            ["series", "--group", "u", "--rank", "1", "--genus", "2", "--order", "100000"],
        ],
    )
    def test_closed_stdout_exits_141(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ymseries.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_every_exception_has_one_base(self):
        classes = set()
        for info in pkgutil.iter_modules(ymseries.__path__):
            module = importlib.import_module(f"ymseries.{info.name}")
            for obj in vars(module).values():
                if inspect.isclass(obj) and issubclass(obj, BaseException):
                    if obj.__module__.startswith("ymseries."):
                        classes.add(obj)
        # the two bases and the ten classes under InputError at the time of writing
        assert len(classes) >= 12
        for cls in classes:
            assert issubclass(cls, InputError) != issubclass(cls, ExactnessError), cls
