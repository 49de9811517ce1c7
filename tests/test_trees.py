"""scripts/_trees.py, the driver of the scripts that compare this checkout
with another.  The module is loaded read-only: no bytecode is written
under scripts/."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def trees():
    spec = importlib.util.spec_from_file_location("scripts_trees", SCRIPTS / "_trees.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_the_first_checkout_alternates_from_round_to_round(trees, tmp_path):
    checkouts = {"this": trees.ROOT, "other": tmp_path}
    firsts = [order[0][0] for order in trees.rounds(checkouts, 4)]
    assert firsts == ["this", "other", "this", "other"]
    assert all(sorted(order) == sorted(checkouts.items()) for order in trees.rounds(checkouts, 4))


def test_a_child_imports_from_the_tree_and_sees_no_seed(trees, tmp_path, monkeypatch):
    monkeypatch.setenv("SHRINKFIT_SEED", "12")
    code = ("import os, sys; "
            "print(os.environ['PYTHONPATH'], 'SHRINKFIT_SEED' in os.environ, *sys.argv[1:])")
    assert trees.run(tmp_path, code, "a", 3).split() == [str(tmp_path / "src"), "False", "a", "3"]


def test_a_failing_child_exits_with_its_traceback(trees, tmp_path):
    with pytest.raises(SystemExit) as exc:
        trees.run(tmp_path, "raise ValueError('child broke')")
    message = str(exc.value.code)
    assert "Traceback" in message and "ValueError: child broke" in message


@pytest.mark.parametrize(
    "args", [[], ["{tmp}"], ["{root}", "0"], ["{root}", "x"], ["{root}", "2", "3"]])
def test_a_bad_command_line_gives_the_usage_and_exit_2(trees, tmp_path, capsys, args):
    argv = [a.format(tmp=tmp_path, root=trees.ROOT) for a in args]
    with pytest.raises(SystemExit) as exc:
        trees.parse(argv, "Doc.\n\n    usage line\n\nMore.", rounds=5)
    assert exc.value.code == 2
    assert capsys.readouterr().err == "    usage line\n"


def test_the_command_line_gives_both_checkouts_and_the_rounds(trees, tmp_path):
    (tmp_path / "src" / "shrinkfit").mkdir(parents=True)
    assert trees.parse([str(tmp_path)], "", rounds=5) == (
        {"this": trees.ROOT, "other": tmp_path.resolve()}, 5)
    assert trees.parse([str(tmp_path), "2"], "", rounds=5)[1] == 2
    with pytest.raises(SystemExit):  # a script without rounds takes no ROUNDS
        trees.parse([str(tmp_path), "2"], "a\n\nb")
