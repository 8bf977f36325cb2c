import hashlib
import json
import os
import subprocess
import sys

import pytest

import kcn
from kcn.cli import main


def test_params_all(capsys):
    assert main(["params"]) == 0
    out = capsys.readouterr().out
    assert "lwr-recommended" in out and "zarzar" in out
    assert len([ln for ln in out.splitlines() if ln and not ln.startswith(("suite", "-"))]) >= 15


# SHA-256 of `kcn --json params` stdout over all 30 suites: every suite's
# describe() (key_bits included) and bandwidth, byte for byte
PARAMS_JSON_DIGEST = "fba2c963c7c1c3bd242e1a084961f2bfa6048fa014e22a4d24fce48db6423eec"


def test_params_json_digest(capsys):
    assert main(["--json", "params"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["suites"]) == 30
    assert hashlib.sha256(out.encode()).hexdigest() == PARAMS_JSON_DIGEST


def test_params_single_json(capsys):
    assert main(["--json", "params", "lwr-recommended"]) == 0
    data = json.loads(capsys.readouterr().out)
    row = data["suites"][0]
    assert row["q"] == 2**15 and row["m"] == 16 and row["g"] == 256 and row["d"] == 127
    assert row["key_bits"] == 256


def test_unknown_suite_lists_names(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "nosuch"])
    assert exc.value.code == 2
    assert "known suites" in capsys.readouterr().err


def test_validate(capsys):
    assert main(["validate", "okcn-t2"]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_code_modes(capsys):
    assert main(["validate", "zarzar"]) == 0
    assert capsys.readouterr().out == "zarzar: code mode e8, nothing to validate\n"
    assert main(["--json", "validate", "newhope"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "suite": "newhope",\n  "ok": true,\n  "note": "code-based mode, no scalar KC params"\n}\n')


def test_kx_runs_and_is_deterministic(capsys):
    assert main(["kx", "okcn-t2", "--trials", "3", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert "3/3" in first
    assert main(["kx", "okcn-t2", "--trials", "3", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[0] == second.splitlines()[0]


def test_kx_reports_key_length(capsys):
    assert main(["kx", "akcn-sec-837", "--trials", "2", "--seed", "1"]) == 0
    assert "|K| = 837 bits" in capsys.readouterr().out


def test_error_rate(capsys):
    assert main(["error-rate", "lwe-challenge"]) == 0
    assert "2^-47.9" in capsys.readouterr().out


def _python(*argv):
    """Run a fresh interpreter that imports this kcn."""
    src = os.path.dirname(os.path.dirname(kcn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def _kcn(*argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    return _python("-m", "kcn.cli", *argv)


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats alone roughly doubles the import's time and memory
    run = _python("-c", "import sys, kcn.cli; print('scipy.stats' in sys.modules)")
    assert run.returncode == 0 and run.stdout == "False\n"


_COLD_START = """
import sys
import numpy as np
import kcn.cli
from kcn import protocols as proto
from kcn.analysis import bandwidth, error_rates, security
from kcn.suites import get_suite

rng = np.random.default_rng(1)
for name in ("lwr-recommended", "frodo-recommended", "hybrid-recommended", "newhope"):
    suite = get_suite(name)
    session, msg1 = proto.initiate(suite, rng)
    key, msg2 = proto.respond(suite, msg1, rng)
    assert proto.finish(session, msg2) == key, name
suite = get_suite("hybrid-recommended")
error_rates.error_rate(suite), security.suite_security(suite), bandwidth.bandwidth(suite)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_exchanges_and_analysis_leave_out_scipy():
    # only the chi-square pipeline (the zarzar suite) needs scipy, which more
    # than doubles a cold start's time and adds about 20 MB
    run = _python("-c", _COLD_START)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("suite", ["newhope", "akcn-4to1"])
def test_error_rate_without_model_is_a_usage_error(suite):
    run = _kcn("error-rate", suite)
    mode = {"newhope": "newhope", "akcn-4to1": "akcn41"}[suite]
    assert run.returncode == 2
    assert run.stderr == f"error: no numerical error model for mode {mode}\n"
    assert "Traceback" not in run.stderr and run.stdout == ""


# SHA-256 of scripts/reproduce_tables.py stdout without its closing "done in Ns"
# line: the noise divergences, then every suite's bandwidth, failure figures
# (the hybrid exact-region rate and the two model-less modes included) and
# attack costs, then every published figure beside kcn's value
REPRODUCE_TABLES_DIGEST = "9b75257d5ef7a2941290b923bcfb696dee2940043a57afa519d13e18afad1aff"


def test_reproduce_tables_digest():
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "reproduce_tables.py")
    run = _python(script)
    assert run.returncode == 0, run.stderr
    *body, done = run.stdout.splitlines(keepends=True)
    assert done.startswith("done in ")
    assert hashlib.sha256("".join(body).encode()).hexdigest() == REPRODUCE_TABLES_DIGEST


def test_sec_est(capsys):
    assert main(["sec-est", "lwr-recommended"]) == 0
    out = capsys.readouterr().out
    assert "primal" in out and "dual" in out and "*" in out


def test_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 11 and "FAIL" not in out


@pytest.mark.parametrize("command", ["kx"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trial_count_below_one_is_a_usage_error(command, trials):
    run = _kcn(command, "okcn-t2", "--trials", trials)
    assert run.returncode == 2
    assert "--trials" in run.stderr and "must be at least 1" in run.stderr
    assert "Traceback" not in run.stderr and run.stdout == ""


def test_negative_seed_is_a_usage_error():
    run = _kcn("kx", "okcn-t2", "--seed", "-1")
    assert run.returncode == 2
    assert "--seed" in run.stderr and "must be at least 0, got -1" in run.stderr
    assert "Traceback" not in run.stderr and run.stdout == ""


def test_kx_reports_phase_medians(capsys):
    assert main(["kx", "newhope", "--trials", "3", "--seed", "2"]) == 0
    assert "median" in capsys.readouterr().out
