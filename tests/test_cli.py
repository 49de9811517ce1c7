import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shrinkfit
from shrinkfit import (
    FitMethod,
    ModelError,
    NonconcaveAtMax,
    NonintegrablePosterior,
    OptimizerNoBracket,
    PriorSpec,
    RankDeficientX,
    TooFewUnits,
    TwoLevelData,
    cli,
    fit,
    random_effects,
)
from shrinkfit.cli import CliInputError, _parser, main, read_dataset_csv, write_dataset_csv


@pytest.fixture
def fig1_csv(tmp_path, fig1_data):
    path = tmp_path / "fig1.csv"
    write_dataset_csv(path, fig1_data)
    return path


class TestFit:
    def test_fig1_mle_and_adm(self, fig1_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(
            ["fit", str(fig1_csv), "--method", "mle", "--method", "adm", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        mle = payload["results"]["mle"]
        assert mle["boundary"] is True
        assert mle["B_hat"] == [1.0] * 10
        assert mle["s2"] == [0.0] * 10
        adm = payload["results"]["adm"]
        assert adm["B_hat"][0] == pytest.approx(8.0 / (9.0 + math.sqrt(17.0)), abs=1e-9)
        assert adm["B_hat"][0] == pytest.approx(0.60961, abs=1e-5)

    def test_stdout_default(self, fig1_csv, capsys):
        assert main(["fit", str(fig1_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "adm" in payload["results"]

    def test_stdout_without_byte_buffer(self, fig1_csv, tmp_path):
        # an in-process caller may swap in a text-only stdout
        from contextlib import redirect_stdout

        out = tmp_path / "fit.json"
        argv = ["fit", str(fig1_csv), "--method", "adm", "--method", "reml"]
        assert main(argv + ["--out", str(out)]) == 0
        with redirect_stdout(io.StringIO()) as text:
            assert main(argv) == 0
        assert text.getvalue().encode() == out.read_bytes()
        assert json.loads(text.getvalue()) == json.loads(out.read_text())

    def test_successive_calls_parse_independently(self, fig1_csv, tmp_path):
        # main reuses one parser: no appended --method or --k list, and no
        # subcommand default, may carry over from one call to the next
        outs = [tmp_path / f"{j}.json" for j in range(3)]
        assert main(["fit", str(fig1_csv), "--method", "mle", "--method", "reml",
                     "--out", str(outs[0])]) == 0
        assert main(["curves", "--k", "5", "--t-grid", "1", "--out", str(tmp_path / "c.csv")]) == 0
        assert main(["fit", str(fig1_csv), "--out", str(outs[1])]) == 0
        assert main(["fit", str(fig1_csv), "--method", "exact", "--out", str(outs[2])]) == 0
        results = [list(json.loads(p.read_text())["results"]) for p in outs]
        assert results == [["mle", "reml"], ["adm"], ["exact"]]
        assert _parser() is _parser()
        fresh = _parser().parse_args(["curves"])
        assert fresh.k is None and fresh.func.__name__ == "cmd_curves"
        assert not hasattr(fresh, "method")

    def test_missing_V_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,mu\n1.0,0.0\n2.0,0.0\n")
        assert main(["fit", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_c_zero_exits_2_with_error_name(self, fig1_csv, capsys):
        assert main(["fit", str(fig1_csv), "--c", "0"]) == 2
        assert "NonpositiveC" in capsys.readouterr().err

    def test_too_few_units_exits_2(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        small.write_text("y,V,x1\n1.0,1.0,1.0\n2.0,1.0,1.0\n3.0,1.0,1.0\n")
        assert main(["fit", str(small), "--method", "adm"]) == 2
        assert "TooFewUnits" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["adm", "exact"])
    @pytest.mark.parametrize("V", [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]])
    def test_improper_posterior_is_too_few_units_at_any_V(self, tmp_path, capsys, V, method):
        # k - r = 2 <= 2c at c = 1: one error, whether the variances are equal or not
        data = TwoLevelData([0.3, -1.2, 2.0, 0.7], V, np.column_stack([np.ones(4), np.arange(4.0)]))
        with pytest.raises(TooFewUnits):
            fit(data, PriorSpec(c=1.0), FitMethod(method))
        path = tmp_path / "in.csv"
        write_dataset_csv(path, data)
        assert main(["fit", str(path), "--method", method]) == 2
        assert capsys.readouterr().err.startswith("TooFewUnits: ")

    @pytest.mark.parametrize("z", ["nan", "inf", "0", "-1"])
    def test_nonfinite_or_nonpositive_z_exits_2(self, fig1_csv, tmp_path, capsys, z):
        out = tmp_path / "out.json"
        assert main(["fit", str(fig1_csv), f"--z={z}", "--out", str(out)]) == 2
        assert "z_star must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "error", [NonconcaveAtMax, NonintegrablePosterior, OptimizerNoBracket, RankDeficientX]
    )
    def test_named_errors_exit_2_with_their_name(self, fig1_csv, capsys, monkeypatch, error):
        def failing_fit(*args, **kwargs):
            raise error("no fit")

        monkeypatch.setattr(cli, "fit", failing_fit)
        assert main(["fit", str(fig1_csv)]) == 2
        assert capsys.readouterr().err == f"{error.__name__}: no fit\n"

    def test_nearly_collinear_X_exits_2(self, tmp_path, capsys):
        from test_fitters import nearly_collinear_data

        path = tmp_path / "collinear.csv"
        write_dataset_csv(path, nearly_collinear_data())
        for method in ("adm", "mle", "reml", "exact"):
            assert main(["fit", str(path), "--method", method]) == 2
            assert "RankDeficientX" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv")]) == 1
        assert "I/O error" in capsys.readouterr().err

    def test_non_numeric_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,V\n1.0,1.0\nfoo,1.0\n")
        assert main(["fit", str(bad)]) == 2


def _as_lists(obj):
    """obj with every ndarray replaced by its tolist()."""
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


class TestFitStreamedWrite:
    """`fit` writes its document one value at a time through write_json;
    the bytes must be those of one orjson.dumps(payload,
    OPT_SERIALIZE_NUMPY | OPT_SORT_KEYS) call and a newline."""

    @pytest.mark.parametrize("methods", [["adm"], ["adm", "mle"]])
    @pytest.mark.parametrize("r", [0, 2])
    @pytest.mark.parametrize("sink", ["file", "stdout"])
    def test_bytes_match_json_dumps(self, tmp_path, capsys, monkeypatch, sink, r, methods):
        import orjson
        from test_fitters import cli_pool_dataset

        data = cli_pool_dataset(10, 0)
        if r == 0:
            data = TwoLevelData(data.y, data.V)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        payloads = []

        def recording(obj, write, writer=cli.write_json):
            payloads.append(obj)  # the document first, then each value in it
            return writer(obj, write)

        monkeypatch.setattr(cli, "write_json", recording)
        argv = ["fit", str(path)] + [arg for m in methods for arg in ("--method", m)]
        out = tmp_path / "out.json"
        if sink == "file":
            argv += ["--out", str(out)]
        assert main(argv) == 0
        written = out.read_bytes() if sink == "file" else capsys.readouterr().out.encode()
        payload = payloads[0]
        results = payload["results"]
        assert list(results) == methods and payload["r"] == r
        assert all(isinstance(res["B_hat"], np.ndarray) for res in results.values())
        assert results["adm"]["beta_hat"].shape == (r,)
        option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS
        assert written == orjson.dumps(payload, option=option) + b"\n"
        assert json.loads(written) == json.loads(json.dumps(_as_lists(payload)))

    def test_memory_is_about_the_file_size(self, tmp_path):
        # the arrays are encoded one at a time, not as one document string
        # (the whole text, its lists and its copies took 4x the file size)
        import tracemalloc

        from test_fitters import cli_pool_dataset

        path, out = tmp_path / "data.csv", tmp_path / "out.json"
        write_dataset_csv(path, cli_pool_dataset(5000, 0))
        tracemalloc.start()
        try:
            assert main(["fit", str(path), "--method", "adm", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.stat().st_size


class TestNonfiniteOutput:
    """A fit document never holds NaN or inf (orjson would write null): a
    non-finite value is exit 2, named, with no output written."""

    @pytest.mark.parametrize("where", ["lo", "A_hat"])
    def test_nonfinite_value_exits_2_and_writes_nothing(self, fig1_csv, tmp_path, capsys,
                                                         monkeypatch, where):
        import dataclasses

        if where == "lo":
            def effects(data, shr, z_star):
                post = random_effects(data, shr, z_star=z_star)
                lo = post.lo.copy()
                lo[3] = math.nan
                return dataclasses.replace(post, lo=lo)

            monkeypatch.setattr(cli, "random_effects", effects)
        else:
            monkeypatch.setattr(cli, "fit", lambda *args: dataclasses.replace(
                fit(*args), A_hat=math.inf))
        out = tmp_path / "out.json"
        assert main(["fit", str(fig1_csv), "--method", "adm", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and f"adm fit gave a non-finite {where}" in err
        assert not out.exists()


class TestDatasetRoundTrip:
    def test_parse_emit_parse_identity(self, tmp_path, two_group_data):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_dataset_csv(p1, two_group_data)
        data1 = read_dataset_csv(p1)
        write_dataset_csv(p2, data1)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "y,V,x1"
        data2 = read_dataset_csv(p2)
        np.testing.assert_array_equal(data1.y, data2.y)
        np.testing.assert_array_equal(data1.V, data2.V)
        np.testing.assert_array_equal(data1.X, data2.X)
        assert data2.mu is None

    def test_round_trip_with_mu(self, tmp_path, fig1_data):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_dataset_csv(p1, TwoLevelData(fig1_data.y, fig1_data.V, mu=np.full(10, 0.25)))
        data = read_dataset_csv(p1)
        write_dataset_csv(p2, data)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "y,V,mu"
        np.testing.assert_array_equal(data.mu, np.full(10, 0.25))


# (file text, y, V, X rows or None, mu or None): accepted, same arrays as the
# csv-module reader this one replaced
_ACCEPTED = {
    "blank_lines": ("y,V\n\n1.5,1.0\n\n2.5,2.0\n\n", [1.5, 2.5], [1.0, 2.0], None, None),
    "crlf": ("y,V,x1\r\n1.5,1.0,3\r\n2.5,2.0,4\r\n", [1.5, 2.5], [1.0, 2.0], [[3], [4]], None),
    "no_final_newline": ("y,V\n1.5,1.0\n2.5,2.0", [1.5, 2.5], [1.0, 2.0], None, None),
    "quoted": ('"y","V"\n"1.5","1.0"\n2.5,"2e0"\n', [1.5, 2.5], [1.0, 2.0], None, None),
    "unused_text_and_extra_fields": (
        'id,y,V\nalpha,1.5,1.0\n"b,c",2.5,2.0,extra\n', [1.5, 2.5], [1.0, 2.0], None, None
    ),
    "spaces": ("y,V\n 1.5 ,1.0\n2.5, 2.0 \n", [1.5, 2.5], [1.0, 2.0], None, None),
    "mu": ("y,V,mu\n1.5,1.0,0.25\n2.5,2.0,-0.5\n", [1.5, 2.5], [1.0, 2.0], None, [0.25, -0.5]),
    "covariates_any_order": (
        "x2,V,y,x1\n7,1.0,1.5,3\n8,2.0,2.5,4\n", [1.5, 2.5], [1.0, 2.0], [[3, 7], [4, 8]], None
    ),
    "number_spellings": ("y,V\n-1e-3,+2\n.5,2E+1\n", [-1e-3, 0.5], [2.0, 20.0], None, None),
    "mu_ignored_with_covariates": (
        "y,V,x1,mu\n1.5,1.0,3,nan\n2.5,2.0,4,n/a\n", [1.5, 2.5], [1.0, 2.0], [[3], [4]], None
    ),
    "utf8_bom": ("\ufeffy,V\n1.5,1.0\n2.5,2.0\n", [1.5, 2.5], [1.0, 2.0], None, None),
}

# (file text, CliInputError message pattern)
_REJECTED = {
    "short_row": ("y,V\n1.0,1.0\n2.0\n", "parse error in column 'V'"),
    "foo_in_y": ("y,V\n1.0,1.0\nfoo,1.0\n", "parse error in column 'y'.*foo"),
    "header_only": ("y,V\n", "parse error: no data rows"),
    "header_and_blank_lines": ("y,V\n\n\n", "parse error: no data rows"),
    "empty_file": ("", "parse error: empty file"),
    "python_only_spelling": ("y,V\n1_000,1.0\n", "parse error in column 'y'"),
    "x2_without_x1": ("y,V,x2\n1.0,1.0,3.0\n2.0,1.0,4.0\n", "covariates \\['x2'\\]"),
    "x1_x3": ("y,V,x1,x3\n1.0,1.0,3.0,1.0\n", "covariates"),
    "duplicate_y": ("y,V,y\n1.0,1.0,2.0\n", "duplicate column names \\['y'\\]"),
    "duplicate_unused": ("y,V,note,note\n1.0,1.0,a,b\n", "duplicate column names"),
}


# Fields for the reader's differential test: JSON numbers that orjson reads
# otherwise than loadtxt (the integer -0 as +0) or not at all (1e400), or
# that are edge cases of its parse, which may turn up in any body; and
# spellings that are no JSON number, which only odd bodies hold.
_JSON_NUMBER_FIELDS = ["-0", "-0", "-0.0", "0", "0.0", "1E5", "2e+3", "1e-0", "-0e0", "1e-400",
                       "1e400", "-1e400", str(2**53 + 1), str(2**64 + 1), str(-(2**64) - 3),
                       "4.9e-324", "2.2250738585072014e-308", "123456789012345678901234567890"]
_OTHER_FIELDS = ["+1", ".5", "1.", "01", "-01", "nan", "-inf", "inf", "-", "", "1_000", "0x10",
                 "1e"]


@st.composite
def _decimal_text(draw):
    """1 to 40 significant digits, with a point and an exponent e-345 to e300."""
    digits = str(draw(st.integers(1, 10**40 - 1)))
    point = draw(st.integers(1, len(digits)))
    sign = draw(st.sampled_from(["", "-"]))
    return f"{sign}{digits[:point]}.{digits[point:] or '0'}e{draw(st.integers(-345, 300))}"


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(0.05, 20.0).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    _decimal_text(),
)
_POSITIVE_TEXT = st.one_of(
    st.floats(1e-300, 1e300).map(repr), st.floats(0.1, 10.0).map(lambda x: f"{x:.17g}"),
    st.integers(1, 2**70).map(str),
)


@st.composite
def _csv_bodies(draw):
    """A header of y, V and some of x1, mu, a numeric note and a text id, in
    any order, then rows of numbers, any of which may be one of
    _JSON_NUMBER_FIELDS, with LF or CRLF line ends, the last one missing or
    doubled, and perhaps a byte-order mark. About half the bodies hold one
    kind of oddity, now and then: a field of _OTHER_FIELDS; a field quoted,
    spaced or next to a lone CR; a short or long row; a line end unlike the
    others (a lone CR too, the header's as well); a blank line; a text id."""
    odd = draw(st.sampled_from([None] * 6 + ["other", "decor", "ragged", "ends", "blank", "id"]))

    def now_and_then(kind, n):
        return odd == kind and draw(st.integers(0, n - 1)) == 0

    names = ["y", "V"] + [n for n in ("x1", "mu", "note") if draw(st.booleans())]
    names = draw(st.permutations(names + (["id"] if odd == "id" else [])))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 8))):
        fields = []
        for name in names:
            if name == "id":
                text = draw(st.sampled_from(["a", "unit 7", '"b,c"', "12", "-0"]))
            elif draw(st.integers(0, 7)) == 0:
                text = draw(st.sampled_from(_JSON_NUMBER_FIELDS))
            elif now_and_then("other", 8):
                text = draw(st.sampled_from(_OTHER_FIELDS))
            else:
                text = draw(_POSITIVE_TEXT if name == "V" else _NUMBER_TEXT)
            if now_and_then("decor", 8):
                text = draw(st.sampled_from(['"{}"', " {}", "{} ", "\r{}", "{}\r"])).format(text)
            fields.append(text)
        if now_and_then("ragged", 4):
            fields = fields[:-1]
        elif now_and_then("ragged", 4):
            fields.append("0.5")
        lines.append(",".join(fields))
        if now_and_then("blank", 4):
            lines.append("")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if now_and_then("ends", 3) else end
            for _ in lines]
    ends[-1] = draw(st.sampled_from(["", ends[-1], ends[-1] * 2]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + "".join(line + e for line, e in zip(lines, ends))


def _read_outcome(path):
    """read_dataset_csv's arrays as bytes, or its error's type and message."""
    try:
        data = read_dataset_csv(path)
    except (CliInputError, ValueError, ModelError) as err:
        return type(err).__name__, str(err)
    return [a if a is None else (a.shape, a.tobytes()) for a in (data.y, data.V, data.X, data.mu)]


class TestReadDataset:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(text=_csv_bodies(), block=st.sampled_from([8, 64, 1 << 16]))
    @example(text="y,V,x1\n1.5,1.0,1\n2.5,2.0,-0\n3.5,1.0,3\n", block=8)  # loadtxt: -0.0
    @example(text="y,V\n1.5,1.0\n-0,2.0\n", block=1 << 16)
    @example(text="y,V\n1.5\r,1.0\n", block=1 << 16)  # loadtxt ends the line at \r
    @example(text="y,V\r1.5,1.0\n2.5,2.0\n", block=1 << 16)  # ...the header's too
    @example(text="y,V\n-1.2345678901234567e-300,2.2250738585072014e-308\n" + "1,2\n" * 40,
             block=8)  # shorter lines than the first block's: the table grows
    def test_same_as_loadtxt_alone(self, text, block):
        # the plain-number reader, with blocks of `block` bytes, gives the
        # same bits or the same error as the loadtxt path by itself
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(text.encode())
            with mock.patch.object(cli, "_BODY_BLOCK", block):
                got = _read_outcome(path)
            with mock.patch.object(cli, "_read_plain_body", return_value=None):
                assert got == _read_outcome(path)

    @pytest.mark.parametrize("case", sorted(_ACCEPTED))
    def test_accepted(self, tmp_path, case):
        text, y, V, X, mu = _ACCEPTED[case]
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        data = read_dataset_csv(path)
        np.testing.assert_array_equal(data.y, y)
        np.testing.assert_array_equal(data.V, V)
        np.testing.assert_array_equal(data.X, np.empty((2, 0)) if X is None else X)
        if X is not None:
            assert data.mu is None
        else:
            np.testing.assert_array_equal(data.mu, np.zeros(2) if mu is None else mu)

    def test_peak_memory_no_higher_than_loadtxt(self, tmp_path, monkeypatch):
        # the plain-number reader holds one block's text and numbers at a
        # time, so neither it nor the whole read peaks above np.loadtxt's
        import tracemalloc

        from test_fitters import cli_pool_dataset

        path = tmp_path / "data.csv"
        write_dataset_csv(path, cli_pool_dataset(50_000, 0))

        def peak(read, *args):
            tracemalloc.start()
            try:
                read(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def loadtxt_table():
            with open(path, newline="", encoding="utf-8-sig") as fh:
                fh.readline()
                return cli._load_columns(fh, [0, 1, 2, 3])

        plain = (path, "y,V,x1,x2\n", 4, [0, 1, 2, 3])
        assert cli._read_plain_body(*plain) is not None
        assert peak(cli._read_plain_body, *plain) <= peak(loadtxt_table)
        fast = peak(read_dataset_csv, path)
        monkeypatch.setattr(cli, "_read_plain_body", lambda *args: None)
        assert fast <= peak(read_dataset_csv, path)

    @pytest.mark.parametrize("case", sorted(_REJECTED))
    def test_rejected(self, tmp_path, case):
        text, message = _REJECTED[case]
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CliInputError, match=message):
                read_dataset_csv(path)


# (column overrides of a valid 5-unit r = 0 file, error name, message)
_DATA_ERRORS = {
    "nan_mu": ({"mu": "nan"}, "ValueError", "mu contains non-finite values"),
    "inf_mu": ({"mu": "-inf"}, "ValueError", "mu contains non-finite values"),
    "nan_y": ({"y": "nan"}, "ValueError", "y contains non-finite values"),
    "inf_V": ({"V": "inf"}, "NonpositiveVariance", "V contains non-finite values"),
    "zero_V": ({"V": "0"}, "NonpositiveVariance", "must be positive"),
}


def _r0_csv(path, **third_row):
    rows = [{"y": str(0.5 * i - 1.0), "V": "1.0", "mu": str(0.25 * i)} for i in range(5)]
    rows[2].update(third_row)
    path.write_text("y,V,mu\n" + "".join(f"{r['y']},{r['V']},{r['mu']}\n" for r in rows))
    return path


class TestDataErrors:
    @pytest.mark.parametrize("case", sorted(_DATA_ERRORS))
    def test_fit_exits_2_with_error_name(self, tmp_path, capsys, case):
        # checked while the file is read, before any method runs
        overrides, name, message = _DATA_ERRORS[case]
        path = _r0_csv(tmp_path / "in.csv", **overrides)
        assert main(["fit", str(path), "--method", "mle", "--method", "adm"]) == 2
        assert f"{name}: " in capsys.readouterr().err
        with pytest.raises((ValueError, ModelError), match=message):
            read_dataset_csv(path)

    def test_nan_mu_exits_2_without_hanging(self, tmp_path):
        # a NaN known mean once sent the MLE/REML bracket search into an
        # endless loop (and the closed forms to all-NaN output with exit 0);
        # a child process with a timeout turns a hang into a failure
        path = _r0_csv(tmp_path / "in.csv", mu="nan")
        env = dict(os.environ, PYTHONPATH=str(Path(shrinkfit.__file__).parents[1]))
        argv = [sys.executable, "-m", "shrinkfit.cli", "fit", str(path)]
        for method in ("adm", "mle", "reml", "exact"):
            argv += ["--method", method]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2
        assert "ValueError: mu contains non-finite values" in proc.stderr


class TestSimulate:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = [
            "simulate", "--preset", "equal", "--k", "4", "--reps", "8",
            "--grid", "0.25,0.75", "--seed", "42",
        ]
        d1, d2, d3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
        assert main(args + ["--out", str(d1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(d2), "--threads", "1"]) == 0
        assert main(args + ["--out", str(d3), "--threads", "2"]) == 0
        csv1 = (d1 / "simulation.csv").read_bytes()
        assert csv1 == (d2 / "simulation.csv").read_bytes()
        assert csv1 == (d3 / "simulation.csv").read_bytes()
        json1 = (d1 / "simulation.json").read_bytes()
        assert json1 == (d2 / "simulation.json").read_bytes()
        assert json1 == (d3 / "simulation.json").read_bytes()

    def test_two_group_row_count(self, tmp_path):
        out = tmp_path / "tg"
        code = main(
            ["simulate", "--preset", "two-group", "--reps", "2", "--seed", "1",
             "--out", str(out), "--threads", "2"]
        )
        assert code == 0
        with open(out / "simulation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50 * 2  # 50 gridpoints x 2 variance groups
        assert {r["group"] for r in rows} == {"V=0.55", "V=5.5"}

    def test_seed_env_var_overrides(self, tmp_path, monkeypatch):
        args = [
            "simulate", "--preset", "equal", "--k", "4", "--reps", "5",
            "--grid", "0.5", "--out",
        ]
        d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        monkeypatch.setenv("SHRINKFIT_SEED", "12345")
        assert main(args + [str(d1), "--seed", "999"]) == 0
        monkeypatch.delenv("SHRINKFIT_SEED")
        assert main(args + [str(d2), "--seed", "12345"]) == 0
        assert main(args + [str(d3), "--seed", "999"]) == 0
        assert (d1 / "simulation.csv").read_bytes() == (d2 / "simulation.csv").read_bytes()
        assert (d1 / "simulation.csv").read_bytes() != (d3 / "simulation.csv").read_bytes()

    def test_explicit_config(self, tmp_path):
        out = tmp_path / "explicit"
        code = main(
            ["simulate", "--k", "5", "--r", "0", "--variances", "0.5,1.0,1.5,2.0,2.5",
             "--grid", "0.3,0.7", "--reps", "4", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        with open(out / "simulation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 5  # every unit its own variance group

    def test_explicit_config_intercept_via_r(self, tmp_path):
        out = tmp_path / "explicit_r1"
        code = main(
            ["simulate", "--k", "6", "--r", "1", "--variances", "1.0",
             "--grid", "0.4", "--reps", "3", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        with open(out / "simulation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["r"] == "1" for r in rows)

    def test_r_design_contradiction_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--k", "6", "--r", "1", "--x", "none", "--variances", "1.0",
             "--grid", "0.4", "--reps", "3", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "contradicts" in capsys.readouterr().err

    def test_grid_points_downsamples_preset(self, tmp_path):
        out = tmp_path / "gp"
        code = main(
            ["simulate", "--preset", "equal", "--k", "4", "--reps", "2",
             "--grid-points", "3", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        with open(out / "simulation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 3  # 3 gridpoints x 3 methods

    def test_invalid_grid_exits_2(self, tmp_path, capsys):
        assert (
            main(["simulate", "--preset", "equal", "--k", "4", "--reps", "2",
                  "--grid", "0,0.5", "--out", str(tmp_path)])
            == 2
        )

    @pytest.mark.parametrize("flag, value, message", [
        ("--z", "nan", "z_star must be finite and positive"),
        ("--z", "inf", "z_star must be finite and positive"),
        ("--v0", "nan", "V0 must be finite and positive"),
        ("--v0", "inf", "V0 must be finite and positive"),
        ("--variances", "nan", "all variances must be finite and positive"),
        ("--variances", "1,1,inf,1,1", "all variances must be finite and positive"),
    ])
    def test_nonfinite_config_exits_2(self, tmp_path, capsys, flag, value, message):
        args = {"--k": "5", "--variances": "1.0", "--grid": "0.5", "--reps": "2"}
        args[flag] = value
        out = tmp_path / "sim"
        argv = ["simulate", *(f"{k}={v}" for k, v in args.items()), "--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (out / "simulation.csv").exists()

    def test_missing_explicit_args_exit_2(self, tmp_path, capsys):
        assert main(["simulate", "--k", "5", "--out", str(tmp_path)]) == 2
        assert "--variances" in capsys.readouterr().err

    def test_variance_count_must_match_k(self, tmp_path, capsys):
        out = tmp_path / "sim"
        argv = ["simulate", "--k", "5", "--variances", "1,2,3", "--grid", "0.5",
                "--reps", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "--variances lists 3 values for --k 5" in capsys.readouterr().err
        assert not (out / "simulation.csv").exists()

    def test_zero_grid_points_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sim"
        argv = ["simulate", "--preset", "equal", "--k", "4", "--reps", "2",
                "--grid-points", "0", "--out", str(out)]
        assert main(argv) == 2
        assert "--grid-points must be at least 1" in capsys.readouterr().err
        assert not (out / "simulation.csv").exists()

    def test_zero_reps_is_given_not_missing(self, tmp_path, capsys):
        argv = ["simulate", "--k", "5", "--variances", "1.0", "--grid", "0.5",
                "--reps", "0", "--out", str(tmp_path / "sim")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "reps must be at least 1" in err and "needs" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["--preset", "equal", "--variances", "1.0"], "--variances"),
        (["--preset", "equal", "--v0", "1.0"], "--v0"),
        (["--preset", "equal", "--x", "none"], "--x"),
        (["--preset", "equal", "--r", "0"], "--r"),
        (["--preset", "two-group", "--r", "1"], "--r"),
        (["--preset", "two-group", "--k", "10"], "--k"),
        (["--k", "5", "--variances", "1.0", "--grid", "0.5", "--reps", "2",
          "--grid-points", "3"], "--grid-points"),
    ])
    def test_unused_flag_exits_2_naming_it(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "sim"
        assert main(["simulate", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{flag} is not used ")
        assert not (out / "simulation.csv").exists()

    def test_explicit_v0_default_is_one(self, tmp_path):
        base = ["simulate", "--k", "5", "--variances", "1.0", "--grid", "0.5", "--reps", "3",
                "--seed", "4", "--out"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(base + [str(a)]) == 0
        assert main(base + [str(b), "--v0", "1.0"]) == 0
        assert (a / "simulation.json").read_bytes() == (b / "simulation.json").read_bytes()

    def test_emit_plotdata_equal(self, tmp_path):
        out = tmp_path / "plots"
        code = main(
            ["simulate", "--preset", "equal", "--k", "4", "--k", "10", "--reps", "6",
             "--grid", "0.2,0.8", "--seed", "3", "--out", str(out), "--emit-plotdata"]
        )
        assert code == 0
        for name in (
            "fig2_shrinkage_curves.csv",
            "fig3_variance_curves.csv",
            "fig4_coverage.csv",
            "fig5_coverage_risk.csv",
        ):
            assert (out / name).exists(), name
        with open(out / "fig5_coverage_risk.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"exact", "adm"}
        with open(out / "fig4_coverage.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"exact", "adm", "mle"}
        assert {r["k"] for r in rows} == {"4", "10"}

    def test_emit_plotdata_two_group(self, tmp_path):
        out = tmp_path / "plots"
        code = main(
            ["simulate", "--preset", "two-group", "--reps", "2", "--grid", "0.3,0.6",
             "--seed", "4", "--out", str(out), "--emit-plotdata"]
        )
        assert code == 0
        assert (out / "fig7_twogroup.csv").exists()
        with open(out / "fig7_twogroup.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4


class TestCurves:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(
            ["curves", "--k", "10", "--t-grid", "0,4,400", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by = {(r["T"], r["method"]): float(r["B_hat"]) for r in rows}
        m = 4.0
        assert by[("0.0", "adm")] == pytest.approx(m / (m + 1))
        assert by[("0.0", "exact")] == pytest.approx(m / (m + 1))
        # MLE shrinks at least as much as both ADM and exact everywhere
        for T in ("0.0", "4.0", "400.0"):
            assert by[(T, "mle")] >= by[(T, "adm")] - 1e-12
            assert by[(T, "mle")] >= by[(T, "exact")] - 1e-12
        assert abs(by[("400.0", "adm")] - by[("400.0", "exact")]) < 1e-4

    def test_stdout_output(self, capsys):
        assert main(["curves", "--k", "6", "--t-grid", "1,2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,r,c,m,T,method,B_hat,v")

    def test_quadrature_rows_are_plain_numbers(self, capsys):
        # c != 1 takes the quadrature path; its cells must parse as floats
        assert main(["curves", "--k", "10", "--c", "0.5", "--t-grid", "1,2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        exact = [r for r in rows if r["method"] == "exact"]
        assert len(exact) == 2
        for r in exact:
            assert 0.0 < float(r["B_hat"]) < 1.0 and float(r["v"]) > 0.0

    @pytest.mark.parametrize("T", ["-1", "nan", "inf"])
    def test_negative_T_exits_2(self, tmp_path, capsys, T):
        out = tmp_path / "curves.csv"
        assert main(["curves", f"--t-grid={T},2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "T must be finite and nonnegative\n"
        assert not out.exists()

    def test_k_too_small_for_c_exits_2(self, capsys):
        assert main(["curves", "--k", "4", "--c", "2.5", "--t-grid", "1"]) == 2

    @pytest.mark.parametrize("c", ["0", "-1", "nan", "inf"])
    def test_nonpositive_or_nonfinite_c_exits_2(self, tmp_path, capsys, c):
        out = tmp_path / "curves.csv"
        assert main(["curves", "--k", "10", f"--c={c}", "--t-grid", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("NonpositiveC: prior exponent c must be finite and positive")
        assert not out.exists()
