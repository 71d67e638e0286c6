"""Importing wmwdesign loads numpy and scipy.special, not scipy.stats or scipy.integrate.

Only ``welch_power`` (scipy.stats) and QUADPACK (scipy.integrate) import
them, on their first call: the WMW power path needs no scipy.stats, and an
(F, G) pair whose integrals all converge in QUADPACK's first pass, computed
with numpy, needs no scipy.integrate either.
This test session has imported scipy.stats already (scipy_oracle.py and the
oracles of the other test modules), so a missing first-call import shows only
in a fresh interpreter: one is started with PYTHONPATH set to the package's
``src``.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def first_calls() -> dict:
    """Each function that imports scipy.stats or scipy.integrate on first use, as float.hex."""
    from wmwdesign import (TWO_SIDED, Design, PowerQuery, check_identities, chi_square, normal,
                           second_moment_integrals, welch_power, wmw_power)

    F, G, d = normal(0.75, 2.0), chi_square(3.0, shift=-2.0), Design(12, 30)
    power = wmw_power(PowerQuery(F, G, d, side=TWO_SIDED))
    s = second_moment_integrals(F, G)
    report = check_identities(F, G)
    return {
        "wmw_power": [power.approx_power.hex(), power.mu_n.hex(), power.sigma2_n.hex()],
        "welch_power": [welch_power(0.75, 2.0, 0.0, 1.0, d, side=side).approx_power.hex()
                        for side in ("one_sided_upper", TWO_SIDED)],
        "second_moment_integrals": [s.p_x_ge_y.hex(), s.int_g2_f.hex(), s.int_1mf2_g.hex()],
        "check_identities": [report.complement_residual.hex(), report.nested_residual.hex()],
    }


CHILD = f"""
import json, sys
import wmwdesign, wmwdesign.cli
from wmwdesign import Design, SimulationPlan, build_table, critical_value, normal, simulate_power, student_t
from wmwdesign.simulate import TESTS

table = build_table(6, 7)
critical_value(table, 0.05)
critical_value(table, 0.05, side="two_sided")
plan = SimulationPlan(normal(0.5, 1.0), student_t(4.0), Design(6, 7), trials=64, seed=3)
for test in TESTS:
    simulate_power(plan, test=test)
loaded = [name for name in ("scipy.stats", "scipy.integrate") if name in sys.modules]

from wmwdesign import second_moment_integrals
second_moment_integrals(normal(0.75, 2.0), normal(0.0, 1.0))
first_pass_loaded = [name for name in ("scipy.stats", "scipy.integrate") if name in sys.modules]

from wmwdesign import (TWO_SIDED, PowerQuery, chi_square, deficiency_general, optimal_design,
                       power_curve, wmw_power)
F, G = normal(0.75, 2.0), chi_square(3.0, shift=-2.0)
optimal_design(F, G, 50)
power_curve(F, G, 50)
deficiency_general(F, G, 50, 0.3)
wmw_power(PowerQuery(F, G, Design(12, 30), side=TWO_SIDED))
wmw_loaded = [name for name in ("scipy.stats", "scipy.integrate") if name in sys.modules]

{inspect.getsource(first_calls)}
print(json.dumps({{"package": wmwdesign.__file__, "loaded": loaded,
                  "first_pass_loaded": first_pass_loaded, "wmw_loaded": wmw_loaded,
                  "results": first_calls()}}))
"""


def test_fresh_interpreter_loads_stats_and_integrate_on_first_call():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    child = json.loads(run.stdout.splitlines()[-1])
    assert Path(child["package"]).resolve().is_relative_to(SRC)
    # importing the package and the CLI, exact null tables and all four
    # simulated tests need neither module
    assert child["loaded"] == []
    # two normals' integrals all take the first-pass exit: no QUADPACK
    assert child["first_pass_loaded"] == []
    # the WMW power path, its scans and its deficiency search integrate, and
    # on a shifted chi-square some integral reaches QUADPACK; no scipy.stats
    assert child["wmw_loaded"] == ["scipy.integrate"]
    assert child["results"] == first_calls()
