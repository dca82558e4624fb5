import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_scipy_nor_yaml():
    # scipy is a test-only dependency and yaml is needed by the CLI alone;
    # importing the library must pull in neither
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = ("import json, sys, flradapt; "
             "print(json.dumps(sorted(m for m in ('scipy', 'yaml') if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
