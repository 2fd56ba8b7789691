import argparse
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import time
import types
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import qthermo
from qthermo import cli, qfun, staticq
from qthermo.qfun import QParam, log_q
from qthermo.shift import Potential


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(args)
    return rc, buf.getvalue()


def run_json(args):
    rc, out = run_cli(args)
    assert rc == 0, out
    return json.loads(out)


@pytest.fixture()
def jana_file(tmp_path):
    A = Potential(d=2, memory=2, values=np.array([0.0, 2.0, 3.5, 0.0]))
    path = tmp_path / "jana.json"
    path.write_text(A.to_json())
    return str(path)


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


# option string -> (dest, default, choices), per subcommand, in declaration order
Q_OPTIONS = {"--q": ("q", None, None), "--q-tilde": ("q_tilde", None, None)}
SEED = {"--seed": ("seed", 0, None)}
OUTPUT = {"--output": ("output", None, None)}
POTENTIAL = {"--potential": ("potential", None, None)}
PAYOFF = {"--a": ("payoff", [], None), "--beta": ("beta", 1.0, None)}
CLI_OPTIONS = {
    "qfun": {
        **Q_OPTIONS,
        **OUTPUT,
        "--op": ("op", "exp", ("exp", "log", "dexp", "dlog")),
        "--u": ("u", None, None),
    },
    "selftest": {**SEED, **OUTPUT, "--samples": ("samples", 10000, None)},
    "static-pressure": {**Q_OPTIONS, **OUTPUT, **PAYOFF},
    "sweep-beta": {
        **Q_OPTIONS,
        **OUTPUT,
        **PAYOFF,
        "--beta-min": ("beta_min", 0.0, None),
        "--beta-max": ("beta_max", 2.0, None),
        "--beta-steps": ("beta_steps", 21, None),
        "--csv": ("sequence_csv", None, None),
    },
    "entropy": {**Q_OPTIONS, **OUTPUT, "--p": ("probs", [], None)},
    "ruelle": {**Q_OPTIONS, **OUTPUT, **POTENTIAL},
    "solve": {
        **Q_OPTIONS,
        **OUTPUT,
        **POTENTIAL,
        "--all-branches": ("all_branches", False, None),
        "--allow-boundary": ("allow_boundary", False, None),
    },
    "derivative": {
        **Q_OPTIONS,
        **OUTPUT,
        **POTENTIAL,
        "--direction": ("direction", None, None),
        "--branch": ("branch", 0, None),
    },
    "asym-pressure": {
        **Q_OPTIONS,
        **OUTPUT,
        **POTENTIAL,
        "--n-max": ("n_max", 2000, None),
        "--x0": ("x0", (), None),
        "--sequence-csv": ("sequence_csv", None, None),
    },
    "scan": {**Q_OPTIONS, **OUTPUT, **POTENTIAL, "--grid": ("grid", 400, None)},
    "entropy-surface": {
        **Q_OPTIONS,
        **SEED,
        **OUTPUT,
        "--grid": ("grid", 400, None),
        "--csv": ("sequence_csv", None, None),
    },
    "paper-regression": OUTPUT,
}


def test_cli_interface_is_pinned():
    subparsers = _subparsers()
    assert list(subparsers.choices) == list(CLI_OPTIONS)
    for name, sp in subparsers.choices.items():
        options = [
            (a.option_strings, (a.dest, a.default, a.choices))
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert options == [([flag], spec) for flag, spec in CLI_OPTIONS[name].items()], name


def test_each_subparser_help_is_its_table_doc():
    subparsers = _subparsers()
    helps = {a.dest: a.help for a in subparsers._choices_actions}
    assert list(helps) == list(cli.SUBCOMMANDS)
    for name, (doc, _, _) in cli.SUBCOMMANDS.items():
        assert helps[name] == doc
        assert subparsers.choices[name].description == doc


def test_qfun_log_value():
    payload = run_json(["qfun", "--op", "log", "--u", "2.0", "--q", "0.5"])
    assert payload["value"] == float(f"{float(log_q(2.0, QParam(0.5))):.12g}")


def test_floats_are_twelve_significant_digits():
    payload = run_json(
        ["static-pressure", "--a", "0.5,0.8", "--q", "0.3333333333333333", "--beta", "1.2"]
    )
    eq = staticq.static_q_pressure([0.5, 0.8], 1.2, 1.0 / 3.0)
    assert payload["pressure"] == float(f"{eq.pressure:.12g}")
    assert payload["p_star"][0] == float(f"{eq.p_star[0]:.12g}")


def test_entropy_matches_library():
    payload = run_json(["entropy", "--p", "0.3,0.7", "--q", "0.5"])
    p = np.array([0.3, 0.7])
    assert payload["h_q"] == pytest.approx(staticq.q_entropy_vec(p, 0.5), rel=1e-11)
    assert payload["renyi_q"] == pytest.approx(
        payload["renyi_from_h_q"], abs=1e-10
    )
    assert payload["meson_vericat"] == pytest.approx(
        staticq.meson_vericat_bernoulli(p, 0.5), rel=1e-11
    )


def test_entropy_of_a_degenerate_p_is_plus_zero():
    rc, out = run_cli(["entropy", "--p", "0,1", "--q", "0.5"])
    assert rc == 0
    payload = json.loads(out)
    for key in ("h_q", "shannon"):
        assert payload[key] == 0.0 and math.copysign(1.0, payload[key]) == 1.0


@pytest.mark.parametrize("q", ["1", "1.5"])
def test_entropy_reports_meson_vericat_only_below_q_1(q):
    payload = run_json(["entropy", "--p", "0.3,0.7", "--q", q])
    assert "meson_vericat" not in payload
    assert payload["shannon"] == float(f"{-(0.3 * math.log(0.3) + 0.7 * math.log(0.7)):.12g}")


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--p", "nan,0.5", "--q", "0.5"],
        # exp(800) overflows to inf, which the serializer refuses
        ["qfun", "--op", "exp", "--u", "800", "--q", "1"],
        ["selftest", "--samples", "0"],
        # u^(1-q) and u^(-q) overflow: -inf and inf, without a RuntimeWarning
        ["qfun", "--op", "log", "--u", "1e-300", "--q", "3"],
        ["qfun", "--op", "dlog", "--u", "1e-300", "--q", "2"],
    ],
)
def test_refused_input_or_output_exits_2_with_empty_stdout(argv, capsys):
    rc, out = run_cli(argv)
    assert rc == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_q_and_q_tilde_must_agree():
    rc, _ = run_cli(["qfun", "--op", "log", "--u", "2.0", "--q", "0.5", "--q-tilde", "1.7"])
    assert rc == 2
    payload = run_json(["qfun", "--op", "log", "--u", "2.0", "--q", "0.5", "--q-tilde", "1.5"])
    assert payload["value"] == float(f"{float(log_q(2.0, QParam(0.5))):.12g}")


def test_missing_q_is_a_usage_error():
    rc, _ = run_cli(["qfun", "--op", "log", "--u", "2.0"])
    assert rc == 2


def test_domain_error_exits_2():
    # beta large enough that 1 + (q-1) beta a leaves the exp_{2-q} domain
    rc, _ = run_cli(["static-pressure", "--a", "0.5,0.8", "--q", "0.3333333333333333", "--beta", "5.0"])
    assert rc == 2


def test_missing_potential_file_exits_2(tmp_path):
    rc, _ = run_cli(["solve", "--potential", str(tmp_path / "nope.json"), "--q-tilde", "0.5"])
    assert rc == 2


@pytest.mark.parametrize("n_max", ["0", "3", "4", "5", "-5"])
def test_asym_pressure_refuses_a_tail_too_short_to_fit(n_max, tmp_path, capsys):
    # the tail [ceil(n_max/2), n_max] needs 4 points for its 3 columns, or the fit is
    # exactly determined; a negative n_max is refused by name, not by a math domain error
    potential = tmp_path / "A.json"
    potential.write_text(Potential(d=2, memory=1, values=np.array([0.0, 1.0])).to_json())
    argv = ["asym-pressure", "--potential", str(potential), "--q", "0.5", f"--n-max={n_max}"]
    rc, out = run_cli(argv)
    assert rc == 2 and out == ""
    assert capsys.readouterr().err == f"error: n_max = {n_max}: the tail fit needs n_max >= 6\n"


def test_unknown_subcommand_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum"])
    assert exc.value.code == 2


def test_no_roots_exits_3(jana_file, monkeypatch):
    monkeypatch.setattr(cli, "qruelle_solve", lambda *a, **k: [])
    rc, _ = run_cli(["solve", "--potential", jana_file, "--q-tilde", "0.5"])
    assert rc == 3


# asym-pressure output on a lattice and a generic potential, as written when
# the CLI refitted the tail itself: the JSON text and the CSV's SHA-256
ASYM_CASES = {
    "lattice": (
        (2, 2, [0.0, 1.0, 2.0, 0.5]),
        ["--q", "0.5", "--x0", "1"],
        '{\n  "q": 0.5,\n  "n_max": 400,\n  "x0": [\n    1\n  ],\n'
        '  "estimate": 0.693214790634,\n  "fit_params": {\n    "constant": 0.693214790634,\n'
        '    "log_n_over_n": 1.96136366865,\n    "one_over_n": -1.43522737562\n  },\n'
        '  "sequence_csv_path": "seq.csv"\n}\n',
        "ab28ec2a52f5562f83924b45dd10319d11f3e6a479c9e5cb02b1b3cc59c432c4",
    ),
    "generic": (
        (2, 1, [0.3, 0.7071067811865476]),
        ["--q", "0.7"],
        '{\n  "q": 0.7,\n  "n_max": 400,\n  "x0": [],\n'
        '  "estimate": 0.693420717119,\n  "fit_params": {\n    "constant": 0.693420717119,\n'
        '    "log_n_over_n": 3.17587153563,\n    "one_over_n": -5.40940551715\n  },\n'
        '  "sequence_csv_path": "seq.csv"\n}\n',
        "9ed71e5a6015312cb7c79ffb0fe0c9fc741802b0ba3fead4fea5df86d57ab11c",
    ),
}


@pytest.mark.parametrize("case", sorted(ASYM_CASES))
def test_asym_pressure_output_is_frozen(case, tmp_path, monkeypatch):
    (d, memory, values), q_args, want_json, want_csv = ASYM_CASES[case]
    monkeypatch.chdir(tmp_path)
    Path("A.json").write_text(Potential(d=d, memory=memory, values=np.array(values)).to_json())
    rc, _ = run_cli(
        ["asym-pressure", "--potential", "A.json", *q_args, "--n-max", "400",
         "--sequence-csv", "seq.csv", "--output", "out.json"]
    )
    assert rc == 0
    assert Path("out.json").read_text() == want_json
    assert hashlib.sha256(Path("seq.csv").read_bytes()).hexdigest() == want_csv


def test_csv_only_with_its_flag(tmp_path, monkeypatch):
    # without --csv / --sequence-csv the subcommands write no file
    potential = tmp_path / "A.json"
    potential.write_text(Potential(d=2, memory=1, values=np.array([0.0, 1.0])).to_json())
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    sweep = run_json(["sweep-beta", "--a", "0.5,0.8", "--q", "0.5", "--beta-steps", "3"])
    asym = run_json(["asym-pressure", "--potential", str(potential), "--q", "0.5", "--n-max", "20"])
    surface = run_json(["entropy-surface", "--q", "0.5", "--grid", "5"])
    assert sweep["csv_path"] is None and surface["csv_path"] is None
    assert asym["sequence_csv_path"] is None
    assert list(run_dir.iterdir()) == []


def test_criterion_10_single_draw_is_the_per_row_stream():
    # criterion 10 draws each potential's words at once; on PCG64 that is the
    # stream of one draw per row, and it leaves the generator in the same state
    def per_row(rng, lens, m_pot):
        return np.concatenate([rng.integers(1, 3, int(mm + nn) + m_pot - 1) for mm, nn in lens])

    def single(rng, lens, m_pot):
        return rng.integers(1, 3, int((lens.sum(axis=1) + m_pot - 1).sum()))

    runs = []
    for draw in (per_row, single):
        rng = np.random.default_rng(0)
        words = []
        for _ in range(5):
            m_pot = int(rng.integers(1, 3))
            rng.uniform(0.0, 1.5, 2**m_pot)
            words.append(draw(rng, rng.integers(1, 13, size=(10_000, 2)), m_pot))
        runs.append((np.concatenate(words), rng.bit_generator.state))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_criterion_13_draws_are_dirichlet_and_uniform(k):
    # criterion 13 draws standard_exponential(k), normalized by the sum taken left to
    # right, for dirichlet(ones(k)), and 0.2 + 1.6*random() for uniform(0.2, 1.8); the
    # first rests on the alpha >= 0.1 branch of numpy's Generator.dirichlet
    lib, ours = np.random.default_rng(k), np.random.default_rng(k)
    want, got = [], []
    for _ in range(1000):
        want.append((*lib.dirichlet(np.ones(k)), lib.uniform(0.2, 1.8)))
        got.append((*ours.standard_exponential(k), 0.2 + 1.6 * ours.random()))
    EQ = np.array(got)
    EQ[:, :k] *= 1.0 / np.add.accumulate(EQ[:, :k], axis=1)[:, -1:]  # as criterion 13 sums them
    assert EQ.tobytes() == np.array(want).tobytes()
    assert lib.bit_generator.state == ours.bit_generator.state


def test_criterion_5_block_draws_are_the_single_draws():
    # criterion 5 draws its candidates in blocks of 4-draws
    single, block = np.random.default_rng(0), np.random.default_rng(0)
    for rows in (20, 7, 1):
        want = np.array([single.normal(0.0, 0.8, 4) for _ in range(rows)])
        assert block.normal(0.0, 0.8, (rows, 4)).tobytes() == want.tobytes()
    assert single.bit_generator.state == block.bit_generator.state


def test_solve_branches(jana_file):
    payload = run_json(["solve", "--potential", jana_file, "--q-tilde", "0.5", "--all-branches"])
    assert payload["branch_count"] == len(payload["branches"]) == 2
    for br in payload["branches"]:
        assert br["residual"] <= 1e-10
        assert isinstance(br["summands_positive"], bool)
        assert not br["boundary"]
        assert len(br["phi"]) == 2 and br["phi"][0] == 0.0
    cs = sorted(br["c"] for br in payload["branches"])
    assert cs[0] == pytest.approx(3.0442810861169263, abs=1e-9)
    assert cs[1] == pytest.approx(3.7057189138830737, abs=1e-9)


def test_output_file_and_byte_identical_rerun(jana_file, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["solve", "--potential", jana_file, "--q-tilde", "0.5", "--all-branches"]
    assert cli.main(args + ["--output", str(out1)]) == 0
    assert cli.main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["branch_count"] == 2


def test_json_has_no_nan(tmp_path):
    with pytest.raises(cli.QThermoError):
        cli._sig12(float("nan"))
    with pytest.raises(cli.QThermoError):
        cli._sig12(float("inf"))


def test_sweep_beta_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    payload = run_json(
        [
            "sweep-beta", "--a", "0.5,0.8", "--q", "0.3333333333333333",
            "--beta-min", "0.0", "--beta-max", "2.0", "--beta-steps", "9",
            "--csv", str(path),
        ]
    )
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "beta,pressure"
    assert len(lines) == 10
    # rows past the exp_{2-q} domain edge hold an empty pressure cell
    empties = [ln for ln in lines[1:] if ln.endswith(",")]
    assert empties and payload["defined_fraction"] < 1.0
    b0, p0 = lines[1].split(",")
    assert float(b0) == 0.0
    assert float(p0) == pytest.approx(
        staticq.static_q_pressure([0.5, 0.8], 0.0, 1.0 / 3.0).pressure, rel=1e-11
    )


def test_sweep_beta_past_exp_overflow_writes_finite_rows(tmp_path):
    # e^(beta a) overflows past beta a = 709.8; the pressures stay finite
    path = tmp_path / "sweep.csv"
    payload = run_json(["sweep-beta", "--a", "0.5,0.8", "--q", "1", "--beta-max", "1000",
                        "--beta-steps", "5", "--csv", str(path)])
    assert payload["defined_fraction"] == 1.0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [float(b) for b, _ in rows] == [0.0, 250.0, 500.0, 750.0, 1000.0]
    assert float(rows[-1][1]) == pytest.approx(800.0, rel=1e-12)


def test_entropy_surface_writes_csv_and_json(tmp_path):
    csv_path = tmp_path / "surface.csv"
    json_path = tmp_path / "surface.json"
    payload_rc = cli.main(
        ["entropy-surface", "--q", "0.5", "--grid", "20",
         "--csv", str(csv_path), "--output", str(json_path)]
    )
    assert payload_rc == 0
    payload = json.loads(json_path.read_text())
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "p12,p21,h_q"
    assert len(lines) == 1 + 21 * 21  # even grid bumped to odd
    assert payload["max"]["p12"] == 0.5
    assert payload["max"]["value"] == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-9)


def test_seed_is_echoed():
    payload = run_json(["selftest", "--samples", "200", "--seed", "7"])
    assert payload["seed"] == 7
    assert payload["passed"] is True


def test_selftest_reports_a_nan_row_as_null_and_fails(monkeypatch):
    monkeypatch.setattr(qfun, "_dexp_q", lambda u, q: np.full(np.shape(u), np.nan))
    rc, out = run_cli(["selftest", "--samples", "2000"])
    payload = json.loads(out)
    assert rc == 1 and payload["passed"] is False and payload["max_violation"] is None
    rows = {r["identity"]: r for r in payload["identities"]}
    for name in ("dexp-derivative", "shift-derivative"):
        assert rows[name]["max_violation"] is None and rows[name]["points"] >= 2000


QFUN_EXP_ARGS = ["qfun", "--op", "exp", "--u", "0.25", "--q", "0.5"]


def child_env():
    """Environment for a child interpreter that imports this same qthermo copy.

    The directory holding the imported package goes first on PYTHONPATH, so
    the child needs no install and does not depend on its working directory.
    """
    env = dict(os.environ)
    src = str(Path(qthermo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def assert_qfun_exp_ran(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] > 1.0


def test_console_script_runs(tmp_path):
    # `python -m qthermo` enters through the console-script target
    # qthermo.cli:main (pinned by test_console_script_entry_point)
    proc = subprocess.run(
        [sys.executable, "-m", "qthermo", *QFUN_EXP_ARGS],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert_qfun_exp_ran(proc)


def test_solve_at_classical_q_tilde_is_the_classical_pressure(jana_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qthermo", "solve", "--potential", jana_file, "--q-tilde", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["branch_count"] == 1
    assert payload["branches"][0]["c"] == run_json(["ruelle", "--potential", jana_file])["pressure"]


@pytest.mark.parametrize(
    "entry", [["-c", "import qthermo.cli"], ["-m", "qthermo", "--help"]], ids=["import", "help"]
)
def test_import_path_is_numpy_only(entry, tmp_path):
    # qthermo needs no scipy, at import or anywhere else
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *entry],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    timings = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert any(line.endswith("| qthermo.cli") for line in timings)
    assert [line for line in timings if "scipy" in line] == []


_SCIPY_BLOCKED = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")
import qthermo
from qthermo.ruelle import variational_entropy_of_masses
mu = qthermo.MarkovMeasure.from_transitions(2, 1, [[0.7, 0.3], [0.6, 0.4]])
print(json.dumps([
    qthermo.q_entropy_variational(mu, 0.5),
    variational_entropy_of_masses(mu.cylinder_masses(3), 2, 3, 0.8),
    qthermo.static_q_pressure_scan((0.5, 0.8, -0.1), 1.2, 1 / 3).pressure,
    qthermo.entropy_affinity_report(0.5, 3).max_defect,
]))
"""


def test_qthermo_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: the former scipy users run where scipy cannot load
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED], capture_output=True, text=True, cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    mu = qthermo.MarkovMeasure.from_transitions(2, 1, [[0.7, 0.3], [0.6, 0.4]])
    assert json.loads(proc.stdout) == [
        qthermo.q_entropy_variational(mu, 0.5),
        qthermo.ruelle.variational_entropy_of_masses(mu.cylinder_masses(3), 2, 3, 0.8),
        staticq.static_q_pressure_scan((0.5, 0.8, -0.1), 1.2, 1 / 3).pressure,
        qthermo.entropy_affinity_report(0.5, 3).max_defect,
    ]


def test_criterion_1_imports_no_module(tmp_path):
    # its 1 ms gate times one cold call, so a module loaded inside it would be timed too
    code = (
        "import json, sys; from qthermo import cli; before = set(sys.modules); "
        "cli.criterion_1(); print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_console_script_entry_point(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["qthermo"] == "qthermo.cli:main"
    module, _, attr = scripts["qthermo"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
    # qthermo/__main__.py calls cli.main and exits with its return code
    monkeypatch.setattr(cli, "main", lambda: 7)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("qthermo", run_name="__main__")
    assert exc.value.code == 7


@pytest.mark.skipif(
    shutil.which("qthermo") is None, reason="no installed qthermo executable on PATH"
)
def test_installed_console_script_runs():
    proc = subprocess.run(["qthermo", *QFUN_EXP_ARGS], capture_output=True, text=True)
    assert_qfun_exp_ran(proc)


def test_regression_gate_passes():
    report = cli.run_regression()
    assert report["ok"] is True
    assert report["target_failures"] == [2, 5, 6]
    assert report["drifted"] == []
    assert all(c["matches_expected"] for c in report["criteria"])


def test_paper_regression_subcommand_exits_zero():
    # criterion results are cached, so this exercises only the wiring
    payload = run_json(["paper-regression"])
    assert payload["ok"] is True
    assert [c["criterion"] for c in payload["criteria"]] == list(range(1, 15))


@pytest.fixture()
def fresh_catalog():
    # the criteria are cached: clear them so a patched library runs, and again after
    for fn in cli.ALL_CRITERIA:
        fn.cache_clear()
    yield
    for fn in cli.ALL_CRITERIA:
        fn.cache_clear()


def test_a_criterion_without_a_value_reports_null_and_drifts(fresh_catalog, monkeypatch):
    # no roots: criteria 2-4 measure NaN or inf, which the JSON shows as null
    monkeypatch.setattr(cli, "qruelle_solve", lambda *a, **k: [])
    rc, out = run_cli(["paper-regression"])
    payload = json.loads(out)
    assert rc == 1
    assert payload["drifted"] == [2, 3, 4] and payload["ok"] is False
    measured = {c["criterion"]: c["measured"] for c in payload["criteria"]}
    assert measured[2] == {"c_low": None, "c_high": None, "phi2": None, "branches": 0}
    assert measured[3]["c_solver"] is None and measured[4]["max_recovery"] is None


def test_a_slow_pass_misses_its_target_without_drifting(fresh_catalog, monkeypatch):
    # a clock that steps 100 s per reading: every gate misses, no frozen check does
    ticks = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: 100.0 * next(ticks))
    monkeypatch.setattr(cli, "time", clock)
    report = cli.run_regression()
    assert report["target_failures"] == list(range(1, 15))
    assert report["drifted"] == []
    for c in report["criteria"][10:13]:  # criteria 11-13, whose target is also their frozen check
        assert c["target_pass"] is False and c["matches_expected"] is True


def test_a_value_past_its_frozen_tolerance_drifts(fresh_catalog, monkeypatch):
    # criterion 1 freezes its pressure to 1e-9; a 1e-6 move is drift
    static_q_pressure = staticq.static_q_pressure

    def moved(*args):
        eq = static_q_pressure(*args)
        return dataclasses.replace(eq, pressure=eq.pressure + 1e-6)

    monkeypatch.setattr(staticq, "static_q_pressure", moved)
    rc, out = run_cli(["paper-regression"])
    payload = json.loads(out)
    assert rc == 1
    assert payload["drifted"] == [1] and payload["ok"] is False


# the package's public names, as its former ``__all__`` listed them
PUBLIC_NAMES = (
    "EntropySurface", "IdentityReport", "Jacobian", "MarkovMeasure", "NonConvergenceError",
    "Potential", "QExpDomainError", "QLogDomainError", "QParam", "QThermoError", "ScanResult",
    "SizeGuardError", "SolveResult", "StaticEquilibrium", "SumBuckets", "a_q_transform",
    "all_words", "asymptotic_pressure", "beta_sweep", "bridge_half", "classical_pressure",
    "derivative_identity_report", "dexp_q", "dlog_q", "entropy_affinity_report", "entropy_surface",
    "equilibrium_markov", "even_power_order", "exp_q", "exp_q_extended", "explimeq_family",
    "frak_L_n", "identity_suite", "index_word", "jana_closed_form", "ks_entropy", "leading_eig",
    "log_frak_L_sequence", "log_q", "meson_vericat_bernoulli", "midpoint_concavity_report",
    "normalize", "phi_n", "pressure_derivative", "preimage_words", "q_entropy_markov",
    "q_entropy_variational", "q_entropy_vec", "q_equilibrium", "q_pressure_scan",
    "qruelle_residual", "qruelle_solve", "random_jacobian", "relative_q_entropy", "renyi_entropy",
    "renyi_from_q_entropy", "static_q_pressure", "static_q_pressure_scan", "supex_closed_form",
    "transfer_matrix", "variational_scan_subadd", "word_index",
)


def test_package_namespace_holds_every_public_name():
    assert sorted(set(PUBLIC_NAMES) - set(dir(qthermo))) == []


def _timed_criterion(monkeypatch, body):
    """Run body as a fresh, unregistered catalog criterion with a 1 ms gate."""
    monkeypatch.setattr(cli, "_CATALOG", {})
    return cli._criterion(99, "timed", gate=lambda dt: dt < 1e-3, target=lambda m: True)(body)()


def test_a_gate_missed_on_every_run_misses_after_three_runs(monkeypatch):
    runs = []

    def body():
        runs.append(1)
        time.sleep(2e-3)
        return {}

    result = _timed_criterion(monkeypatch, body)
    assert len(runs) == 3
    assert result.target_pass is False and result.matches_expected is True
    assert result.seconds >= 2e-3


def test_a_gate_missed_on_the_first_run_alone_passes_on_the_fastest(monkeypatch):
    runs = []

    def body():
        runs.append(1)
        if len(runs) == 1:
            time.sleep(2e-2)  # a cold first call, as a preemption would make it
        return {}

    result = _timed_criterion(monkeypatch, body)
    assert len(runs) == 2
    assert result.target_pass is True and result.seconds < 1e-3
