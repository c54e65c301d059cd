"""The package imports scipy only where a design needs a special function."""

import json
import subprocess
import sys

SCIPY_MODULES = ("import sys, json; "
                 "print(json.dumps(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')))")


def loaded_scipy_modules(code: str, cwd) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{SCIPY_MODULES}"],
                          capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_weather_runs_without_scipy(tmp_path):
    code = "\n".join([
        "import rabench",
        "from rabench import cli",
        "rabench.build_case('weather')",
        "assert cli.main(['pre', '--case', 'weather', '--out', 'pre.json']) == 0",
        "assert cli.main(['simulate', '--case', 'weather', '--agent', 'noisy:k=0.8',"
        " '--strategy', 'CI', '--n', '2000', '--out', 'trials.csv']) == 0",
        "assert cli.main(['post', '--case', 'weather', '--trials', 'trials.csv',"
        " '--out', 'post.json']) == 0",
    ])
    assert loaded_scipy_modules(code, tmp_path) == []


def test_kale_loads_neither_stats_nor_optimize(tmp_path):
    loaded = loaded_scipy_modules("import rabench\nrabench.build_case('kale2020')",
                                  tmp_path)
    assert not [m for m in loaded
                if m.startswith(("scipy.stats", "scipy.optimize"))]
