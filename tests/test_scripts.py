import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def load_script(path):
    # importing a script under a name other than __main__ runs none of its
    # work but resolves every library name it imports
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.stem for path in SCRIPTS])
def test_script_imports(path):
    load_script(path)


@pytest.mark.parametrize("name", ["table_hashes", "mc_timing", "pipeline_memory"])
def test_script_finds_its_own_tree_without_pythonpath(name, tmp_path):
    # a fresh interpreter, outside the tree and with PYTHONPATH unset,
    # loads the script and the package it names from the script's tree;
    # pipeline_memory imports the package only when it runs a stage
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    path = str(SCRIPTS_DIR / f"{name}.py")
    source = ("import importlib.util\n"
              f"spec = importlib.util.spec_from_file_location('script', {path!r})\n"
              "module = importlib.util.module_from_spec(spec)\n"
              "spec.loader.exec_module(module)\n"
              "if hasattr(module, 'stages'):\n"
              "    module.stages(2)\n"
              "import spde_moments\n"
              "print(spde_moments.__file__)\n")
    run = subprocess.run([sys.executable, "-c", source], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == str(SCRIPTS_DIR.parent / "src" / "spde_moments" / "__init__.py")


def test_table_diff_names_the_changed_table_and_its_value_difference(tmp_path, capsys):
    table_diff = load_script(SCRIPTS_DIR / "table_diff.py")
    rows = "time_index,mode,value\n0,0,2\n1,0,-4\n"
    for tree in ("old", "new"):
        for name in ("a/mean.csv", "b/covariance.csv"):
            path = tmp_path / tree / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(rows)
    table_diff.main(str(tmp_path / "old"), str(tmp_path / "new"))
    assert capsys.readouterr().out == ""

    (tmp_path / "new" / "b" / "covariance.csv").write_text("time_index,mode,value\n0,0,2\n1,0,-3\n")
    table_diff.main(str(tmp_path / "old"), str(tmp_path / "new"))
    # max|a - b| / max|a| = 1 / 4, in the second of the two rows
    assert capsys.readouterr().out == (
        "b/covariance.csv  value: max|a-b|/max|a| = 0.25 in 1 of 2 rows\n")


def test_table_diff_counts_the_rows_of_a_change_confined_to_some(tmp_path, capsys):
    # a rounding-level change in two of six rows: one ulp of 3 and of 6
    table_diff = load_script(SCRIPTS_DIR / "table_diff.py")
    header = "interval_1,mode_1,value\n"
    old = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    new = [1.0, 2.0, 3.0000000000000004, 4.0, 5.0, 6.000000000000001]
    for tree, values in (("old", old), ("new", new)):
        path = tmp_path / tree / "moment_coefficients.csv"
        path.parent.mkdir()
        path.write_text(header + "".join(f"{k},0,{v!r}\n" for k, v in enumerate(values)))
    assert table_diff.main(str(tmp_path / "old"), str(tmp_path / "new")) == 1
    # max|a - b| / max|a| = 2^-50 / 6
    assert capsys.readouterr().out == (
        "moment_coefficients.csv  value: max|a-b|/max|a| = 1.48e-16 in 2 of 6 rows\n")
    (tmp_path / "new" / "moment_coefficients.csv").write_text(
        header + "".join(f"{k},0,x\n" for k in range(6)))
    table_diff.main(str(tmp_path / "old"), str(tmp_path / "new"))
    assert capsys.readouterr().out == "moment_coefficients.csv  value: text differs in 6 of 6 rows\n"


def test_table_diff_exits_like_diff(tmp_path):
    def run():
        return subprocess.run(
            [sys.executable, str(SCRIPTS_DIR / "table_diff.py"), str(tmp_path / "old"),
             str(tmp_path / "new")], capture_output=True, text=True,
        ).returncode

    for tree in ("old", "new"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "mean.csv").write_text("time_index,mode,value\n0,0,2\n")
    assert run() == 0
    (tmp_path / "new" / "extra.csv").write_text("time_index,mode,value\n0,0,1\n")
    assert run() == 1  # a table on one side only
    (tmp_path / "new" / "extra.csv").unlink()
    (tmp_path / "new" / "mean.csv").write_text("time_index,mode,value\n0,0,3\n")
    assert run() == 1  # a table whose bytes differ


def test_pipeline_memory_prints_a_peak_per_stage(capsys):
    pipeline_memory = load_script(SCRIPTS_DIR / "pipeline_memory.py")
    pipeline_memory.main(["4"])
    header, row = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["N", *pipeline_memory.STAGES, "seconds"]
    assert row[0] == "4" and len(row) == len(header)
    assert all(float(value) > 0.0 for value in row[1:])


def test_code_lines_counts_only_lines_that_hold_code(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "import os  # a comment after code\n"
        "\n"
        "# a comment-only line\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    total = (x\n"
        "             + os.sep.count('/')\n"
        "             + 2)\n"
        "    return total\n")
    # import, def, the three lines of the continued statement, and return
    assert load_script(SCRIPTS_DIR / "code_lines.py").code_lines(tmp_path / "mod.py") == 6
    out = subprocess.run([sys.executable, str(SCRIPTS_DIR / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "     6  mod.py\n     6  total\n"
